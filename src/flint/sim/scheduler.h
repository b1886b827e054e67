// Streaming client-arrival scheduler. The paper's leader "directly selects
// the next available device from the input sessions at a given virtual time"
// and, for async mode, "uses a priority queue-based task scheduler to
// generate tasks in a streaming fashion and dispatch them in the correct
// order" (§3.4). ArrivalScheduler merges the time-sorted availability windows
// with a requeue heap (clients deferred because they were busy or the
// concurrency limit was reached).
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "flint/device/availability.h"
#include "flint/obs/telemetry.h"
#include "flint/sim/event_queue.h"

namespace flint::sim {

/// A client becoming available for work.
struct Arrival {
  VirtualTime time = 0.0;          ///< when the device can start
  std::uint64_t client_id = 0;
  std::size_t device_index = 0;
  VirtualTime window_end = 0.0;    ///< end of the availability window
};

/// Ordered stream of arrivals over a WindowStream — the one arrival source
/// (DESIGN.md §17). A materialized trace arrives through TraceWindowStream.
class ArrivalScheduler {
 public:
  /// The stream must outlive the scheduler and yield windows non-decreasing
  /// in start; the scheduler consumes it through a one-window lookahead, so
  /// population size never lands in resident memory here.
  explicit ArrivalScheduler(device::WindowStream& stream);

  /// Earliest arrival with effective time >= t. Windows already open at t
  /// arrive at exactly t; windows fully before t are skipped (consumed).
  /// Consumes the returned arrival. nullopt when the trace is exhausted and
  /// the requeue heap is empty.
  std::optional<Arrival> next(VirtualTime t);

  /// Time of the arrival next() would return, without consuming it.
  std::optional<VirtualTime> peek_time(VirtualTime t);

  /// Put an arrival back to be re-offered at `retry_time` (if still within
  /// its window). Used when a client was selected but could not be
  /// dispatched (busy executor, concurrency cap).
  void requeue(Arrival arrival, VirtualTime retry_time);

  /// Windows already consumed from the source — the checkpoint cursor.
  std::size_t cursor() const { return cursor_; }

  /// Requeued arrivals in deterministic pop order (time, then requeue order),
  /// without consuming them. Pairs with restore() for checkpointing.
  std::vector<Arrival> requeued_snapshot() const;

  /// Restore checkpointed state: the window cursor plus requeued arrivals in
  /// the order requeued_snapshot() returned them. The stream passed to the
  /// constructor must yield the windows the checkpointed run saw; restore
  /// only moves forward (it replays the stream up to the cursor).
  void restore(std::size_t cursor, const std::vector<Arrival>& requeued);

 private:
  // The requeue heap orders by retry time with insertion order breaking ties,
  // so equal-time retries pop in the order they were requeued — a stable
  // order a resumed run can reproduce exactly.
  struct QueuedArrival {
    Arrival arrival;
    std::uint64_t seq = 0;
  };
  struct LaterArrival {
    bool operator()(const QueuedArrival& a, const QueuedArrival& b) const {
      if (a.arrival.time != b.arrival.time) return a.arrival.time > b.arrival.time;
      return a.seq > b.seq;
    }
  };

  std::optional<Arrival> window_candidate(VirtualTime t);
  // The head window not yet consumed (nullptr when exhausted), and its
  // consumption.
  const device::AvailabilityWindow* peek_window();
  void pop_window();

  device::WindowStream* stream_;
  std::optional<device::AvailabilityWindow> lookahead_;
  bool stream_exhausted_ = false;
  std::size_t cursor_ = 0;
  std::priority_queue<QueuedArrival, std::vector<QueuedArrival>, LaterArrival> requeued_;
  std::uint64_t next_requeue_seq_ = 0;
  obs::CachedHistogram pick_latency_;  ///< wall cost of next(), microseconds
  obs::CachedCounter picks_counter_;
};

}  // namespace flint::sim
