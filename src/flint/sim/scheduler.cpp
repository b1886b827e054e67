#include "flint/sim/scheduler.h"

#include "flint/util/check.h"

namespace flint::sim {

ArrivalScheduler::ArrivalScheduler(device::WindowStream& stream) : stream_(&stream) {}

const device::AvailabilityWindow* ArrivalScheduler::peek_window() {
  if (!lookahead_.has_value() && !stream_exhausted_) {
    lookahead_ = stream_->next();
    if (!lookahead_.has_value()) stream_exhausted_ = true;
  }
  return lookahead_.has_value() ? &*lookahead_ : nullptr;
}

void ArrivalScheduler::pop_window() {
  ++cursor_;
  lookahead_.reset();
}

std::optional<Arrival> ArrivalScheduler::window_candidate(VirtualTime t) {
  while (const auto* w = peek_window()) {
    if (w->end <= t) {
      pop_window();  // window fully in the past: consume silently
      continue;
    }
    return Arrival{std::max<VirtualTime>(w->start, t), w->client_id, w->device_index, w->end};
  }
  return std::nullopt;
}

std::optional<Arrival> ArrivalScheduler::next(VirtualTime t) {
  FLINT_CHECK_FINITE(t);
  // Pick latency is the leader's per-task scheduling cost (§3.4's "priority
  // queue-based task scheduler"); it bounds dispatch throughput.
  obs::LatencyTimer timer(pick_latency_, "sim.pick_latency_us", 0.0, 50.0, 50);
  if (auto* c = picks_counter_.resolve("sim.scheduler_picks")) c->add(1);
  // Drop requeued arrivals whose window has closed.
  while (!requeued_.empty() && requeued_.top().arrival.window_end <= t) requeued_.pop();

  std::optional<Arrival> picked;
  std::optional<Arrival> from_source = window_candidate(t);
  if (!requeued_.empty()) {
    Arrival r = requeued_.top().arrival;
    r.time = std::max(r.time, t);
    if (!from_source.has_value() || r.time <= from_source->time) {
      requeued_.pop();
      picked = r;
    }
  }
  if (!picked.has_value() && from_source.has_value()) {
    pop_window();  // consume the source window
    picked = from_source;
  }
  if (picked.has_value()) {
    // Priority order: arrivals are delivered at or after the query time and
    // strictly inside their availability window.
    FLINT_CHECK_GE(picked->time, t);
    FLINT_CHECK_LT(picked->time, picked->window_end);
  }
  return picked;
}

std::optional<VirtualTime> ArrivalScheduler::peek_time(VirtualTime t) {
  while (!requeued_.empty() && requeued_.top().arrival.window_end <= t) requeued_.pop();
  std::optional<Arrival> from_source = window_candidate(t);
  std::optional<VirtualTime> best;
  if (from_source.has_value()) best = from_source->time;
  if (!requeued_.empty()) {
    VirtualTime rt = std::max(requeued_.top().arrival.time, t);
    if (!best.has_value() || rt < *best) best = rt;
  }
  return best;
}

void ArrivalScheduler::requeue(Arrival arrival, VirtualTime retry_time) {
  FLINT_CHECK_FINITE(retry_time);
  FLINT_CHECK_GE(retry_time, arrival.time);
  if (retry_time >= arrival.window_end) return;  // nothing left of the window
  arrival.time = retry_time;
  requeued_.push({arrival, next_requeue_seq_++});
}

std::vector<Arrival> ArrivalScheduler::requeued_snapshot() const {
  auto copy = requeued_;
  std::vector<Arrival> out;
  out.reserve(copy.size());
  while (!copy.empty()) {
    out.push_back(copy.top().arrival);
    copy.pop();
  }
  return out;
}

void ArrivalScheduler::restore(std::size_t cursor, const std::vector<Arrival>& requeued) {
  // A stream only moves forward: replay (discard) windows up to the
  // checkpoint cursor. Restoring backwards would need a fresh stream.
  FLINT_CHECK_GE(cursor, cursor_);
  while (cursor_ < cursor) {
    FLINT_CHECK_MSG(peek_window() != nullptr, "restore cursor past end of window stream");
    pop_window();
  }
  requeued_ = {};
  next_requeue_seq_ = 0;
  // Re-inserting in snapshot (pop) order with fresh sequence numbers keeps
  // the pop order identical, and any retry requeued after the resume gets a
  // larger seq — exactly as it would have in the uninterrupted run.
  for (const Arrival& a : requeued) requeued_.push({a, next_requeue_seq_++});
}

}  // namespace flint::sim
