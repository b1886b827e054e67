#include "flint/rpc/leader.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "flint/obs/telemetry.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::rpc {

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// Small blocking slice used while pumping: long enough to sleep instead of
// spin, short enough that deadline checks stay responsive.
constexpr double kPumpSliceS = 0.05;

// Per-executor fleet gauge (rpc.executor.<id>.<field>), read back by
// obs::StatusReporter. The name string materializes only when metrics are on.
void set_executor_gauge(std::uint64_t executor_id, const char* field, double value) {
  obs::Telemetry* t = obs::current();
  if (t == nullptr || !t->config().metrics_enabled) return;
  std::string name = "rpc.executor." + std::to_string(executor_id) + "." + field;
  t->metrics().gauge(name).set(value);
}

}  // namespace

struct Leader::ExecutorState {
  std::unique_ptr<Transport> transport;
  std::string name;
  double last_heartbeat_s = 0.0;
  bool alive = true;
  std::vector<std::uint64_t> outstanding;  ///< lease ids dispatched, unresolved
};

struct Leader::LeaseState {
  TaskLeaseMsg request;
  std::uint64_t executor = 0;
  double dispatched_s = 0.0;
  bool completed = false;
  TaskResultMsg result;
};

Leader::Leader(LeaderConfig config) : config_(std::move(config)) {
  FLINT_CHECK_GT(config_.heartbeat_interval_s, 0.0);
  FLINT_CHECK_GT(config_.heartbeat_timeout_s, config_.heartbeat_interval_s);
  FLINT_CHECK_GT(config_.lease_timeout_s, 0.0);
}

Leader::~Leader() {
  if (!shut_down_) shutdown("leader destroyed");
}

void Leader::add_transport(std::unique_ptr<Transport> transport) {
  FLINT_CHECK(transport != nullptr);
  Frame frame;
  RecvStatus status = transport->recv(frame, config_.register_timeout_s);
  FLINT_CHECK_MSG(status == RecvStatus::kFrame,
                  "executor connected but never sent RegisterExecutor");
  FLINT_CHECK_MSG(frame.type == MessageType::kRegisterExecutor,
                  "expected RegisterExecutor, got " << message_type_name(frame.type));
  RegisterExecutorMsg reg = RegisterExecutorMsg::deserialize(frame.payload);

  std::uint64_t id = next_executor_id_++;
  RegisterAckMsg ack;
  ack.executor_id = id;
  ack.heartbeat_interval_s = config_.heartbeat_interval_s;
  ack.heartbeat_timeout_s = config_.heartbeat_timeout_s;
  ack.dense_dim = config_.dense_dim;
  // Clock-alignment anchor (DESIGN.md §15): the executor subtracts its own
  // wall clock at receipt to estimate its offset from the leader's tracer.
  if (obs::Telemetry* t = obs::current(); t != nullptr && t->tracer().enabled())
    ack.leader_wall_us = t->tracer().wall_now_us();
  ack.model_blob = config_.model_blob;
  bool sent = transport->send(Frame{MessageType::kRegisterAck, ack.serialize()});
  FLINT_CHECK_MSG(sent, "executor " << reg.name << " died during registration");

  ExecutorState state;
  state.transport = std::move(transport);
  state.name = reg.name;
  state.last_heartbeat_s = now_s();
  executors_.emplace(id, std::move(state));
  obs::set_gauge("rpc.executors_alive", static_cast<double>(alive_executors()));
  set_executor_gauge(id, "alive", 1.0);
  set_executor_gauge(id, "outstanding", 0.0);
}

void Leader::add_listener(Listener listener) {
  FLINT_CHECK_MSG(listener_ == nullptr, "leader already has a listener");
  listener_ = std::make_unique<Listener>(std::move(listener));
}

void Leader::wait_for_executors(std::size_t n) {
  double deadline = now_s() + config_.register_timeout_s;
  while (alive_executors() < n) {
    FLINT_CHECK_MSG(listener_ != nullptr,
                    "waiting for " << n << " executors with only "
                                   << alive_executors() << " registered and no listener");
    double remaining = deadline - now_s();
    FLINT_CHECK_MSG(remaining > 0.0, "timed out waiting for " << n << " executors ("
                                                              << alive_executors()
                                                              << " registered)");
    std::unique_ptr<Transport> conn = listener_->accept(std::min(remaining, 1.0));
    if (conn != nullptr) add_transport(std::move(conn));
  }
}

std::uint64_t Leader::pick_executor() {
  FLINT_CHECK_MSG(alive_executors() > 0, "no live executors left to dispatch to");
  // Round-robin in ascending id order, resuming after the previous pick —
  // a deterministic function of dispatch history, never of arrival timing.
  auto it = executors_.upper_bound(rr_last_);
  for (std::size_t scanned = 0; scanned <= executors_.size(); ++scanned) {
    if (it == executors_.end()) it = executors_.begin();
    if (it->second.alive) {
      rr_last_ = it->first;
      return it->first;
    }
    ++it;
  }
  FLINT_CHECK_MSG(false, "no live executors left to dispatch to");
  return 0;  // unreachable
}

void Leader::update_fleet_gauges(std::uint64_t executor_id) {
  if (obs::Telemetry* t = obs::current(); t == nullptr || !t->config().metrics_enabled)
    return;
  auto it = executors_.find(executor_id);
  if (it != executors_.end())
    set_executor_gauge(executor_id, "outstanding",
                       static_cast<double>(it->second.outstanding.size()));
  std::size_t in_flight = 0;
  for (const auto& [id, lease] : leases_)
    if (!lease.completed) ++in_flight;
  obs::set_gauge("rpc.leases_in_flight", static_cast<double>(in_flight));
}

void Leader::dispatch(std::uint64_t lease_id) {
  LeaseState& lease = leases_.at(lease_id);
  // Each dispatch attempt is its own span, rooted at the lease id so the
  // executor's child span lands in the same trace (DESIGN.md §15).
  obs::RpcSpanGuard span("rpc.dispatch", "rpc", obs::SpanContext{},
                         /*trace_id=*/lease_id);
  lease.request.trace_id = span.context().trace_id;
  lease.request.parent_span_id = span.context().span_id;
  for (;;) {
    std::uint64_t executor_id = pick_executor();
    ExecutorState& executor = executors_.at(executor_id);
    if (executor.transport->send(
            Frame{MessageType::kTaskLease, lease.request.serialize()})) {
      lease.executor = executor_id;
      lease.dispatched_s = now_s();
      executor.outstanding.push_back(lease_id);
      update_fleet_gauges(executor_id);
      return;
    }
    // The send itself found the peer dead; lose it (which re-dispatches its
    // other leases) and try the next executor for this one.
    lose_executor(executor_id, "send failed");
  }
}

std::uint64_t Leader::submit(TaskLeaseMsg lease) {
  std::uint64_t lease_id = next_lease_id_++;
  lease.lease_id = lease_id;
  LeaseState state;
  state.request = std::move(lease);
  leases_.emplace(lease_id, std::move(state));
  dispatch(lease_id);
  return lease_id;
}

void Leader::handle_frame(std::uint64_t executor_id, const Frame& frame) {
  ExecutorState& executor = executors_.at(executor_id);
  switch (frame.type) {
    case MessageType::kHeartbeat: {
      HeartbeatMsg beat = HeartbeatMsg::deserialize(frame.payload);
      FLINT_CHECK_EQ(beat.executor_id, executor_id);
      executor.last_heartbeat_s = now_s();
      if (!beat.telemetry.empty()) {
        if (obs::Telemetry* t = obs::current();
            t != nullptr && t->config().metrics_enabled) {
          obs::TelemetrySnapshot snapshot =
              obs::TelemetrySnapshot::deserialize(beat.telemetry);
          telemetry_merger_.apply(executor_id, snapshot, t->metrics());
        }
      }
      return;
    }
    case MessageType::kTaskResult: {
      // Any frame is proof of life.
      executor.last_heartbeat_s = now_s();
      TaskResultMsg result = TaskResultMsg::deserialize(frame.payload);
      auto it = leases_.find(result.lease_id);
      if (it == leases_.end() || it->second.completed) {
        // A re-dispatched lease can resolve twice (the original executor was
        // slow, not dead). First result wins; duplicates are dropped — both
        // are byte-identical anyway, the lease being a pure function.
        obs::add_counter("rpc.duplicate_results");
        return;
      }
      double latency = now_s() - it->second.dispatched_s;
      obs::record_histogram("rpc.lease_latency_s", latency, 0.0, 60.0, 60);
      it->second.completed = true;
      it->second.result = std::move(result);
      std::erase(executors_.at(it->second.executor).outstanding, it->first);
      update_fleet_gauges(it->second.executor);
      return;
    }
    case MessageType::kFlush:
      return;  // a flush echo that arrived after its drain timed out
    default:
      FLINT_CHECK_MSG(false, "leader received unexpected "
                                 << message_type_name(frame.type) << " from executor "
                                 << executor_id);
  }
}

void Leader::lose_executor(std::uint64_t executor_id, const char* why) {
  ExecutorState& executor = executors_.at(executor_id);
  if (!executor.alive) return;
  executor.alive = false;
  executor.transport->close();
  obs::add_counter("rpc.executors_lost");
  obs::set_gauge("rpc.executors_alive", static_cast<double>(alive_executors()));
  set_executor_gauge(executor_id, "alive", 0.0);
  set_executor_gauge(executor_id, "outstanding", 0.0);

  // Stamp-ordered re-dispatch: ascending lease id, so the recovery path is a
  // deterministic function of which executor died — not of arrival timing.
  std::vector<std::uint64_t> orphans = std::move(executor.outstanding);
  executor.outstanding.clear();
  std::sort(orphans.begin(), orphans.end());
  for (std::uint64_t lease_id : orphans) {
    LeaseState& lease = leases_.at(lease_id);
    if (lease.completed) continue;
    obs::add_counter("rpc.redispatches");
    dispatch(lease_id);
  }
  (void)why;
}

void Leader::check_deadlines() {
  double now = now_s();
  // Collect first: lose_executor mutates outstanding lists and re-dispatches.
  std::vector<std::uint64_t> dead;
  for (auto& [id, executor] : executors_) {
    if (!executor.alive) continue;
    if (now - executor.last_heartbeat_s > config_.heartbeat_timeout_s) {
      obs::add_counter("rpc.heartbeat_misses");
      dead.push_back(id);
    }
  }
  for (std::uint64_t id : dead) lose_executor(id, "heartbeat deadline missed");

  std::vector<std::uint64_t> expired;
  for (auto& [lease_id, lease] : leases_) {
    if (lease.completed) continue;
    if (lease.dispatched_s > 0.0 && now - lease.dispatched_s > config_.lease_timeout_s)
      expired.push_back(lease_id);
  }
  for (std::uint64_t lease_id : expired) {
    LeaseState& lease = leases_.at(lease_id);
    if (lease.completed) continue;
    std::erase(executors_.at(lease.executor).outstanding, lease_id);
    obs::add_counter("rpc.redispatches");
    dispatch(lease_id);
  }
}

void Leader::pump(std::uint64_t focus, double block_s) {
  // Non-blocking drain of every live transport, so heartbeats and results
  // from non-focused executors never back up.
  for (auto& [id, executor] : executors_) {
    if (!executor.alive) continue;
    for (;;) {
      Frame frame;
      RecvStatus status = executor.transport->recv(frame, 0.0);
      if (status == RecvStatus::kFrame) {
        handle_frame(id, frame);
        continue;
      }
      if (status == RecvStatus::kClosed) lose_executor(id, "connection closed");
      break;
    }
  }
  // Then block briefly on the executor we are actually waiting for.
  auto it = executors_.find(focus);
  if (it != executors_.end() && it->second.alive) {
    Frame frame;
    RecvStatus status = it->second.transport->recv(frame, block_s);
    if (status == RecvStatus::kFrame)
      handle_frame(focus, frame);
    else if (status == RecvStatus::kClosed)
      lose_executor(focus, "connection closed");
  }
  check_deadlines();
  // The pump is the leader's wall-clock-driven loop; a long lease wait must
  // still produce live status lines.
  obs::tick_status();
}

TaskResultMsg Leader::wait(std::uint64_t lease_id) {
  auto it = leases_.find(lease_id);
  FLINT_CHECK_MSG(it != leases_.end(), "wait() on unknown lease " << lease_id);
  while (!it->second.completed) {
    pump(it->second.executor, kPumpSliceS);
  }
  TaskResultMsg result = std::move(it->second.result);
  leases_.erase(it);
  FLINT_CHECK_MSG(result.ok, "executor " << result.executor_id << " failed task "
                                         << result.task_id << ": " << result.error);
  return result;
}

std::uint16_t Leader::listen_port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

std::size_t Leader::alive_executors() const {
  std::size_t n = 0;
  for (const auto& [id, executor] : executors_)
    if (executor.alive) ++n;
  return n;
}

void Leader::request_and_drain(const Frame& request) {
  for (auto& [id, executor] : executors_)
    if (executor.alive) executor.transport->send(request);
  // Each executor answers with a heartbeat carrying its telemetry deltas
  // since its last rate-limited beat, then echoes the request. Merge
  // everything up to the echo, but wait no longer than one heartbeat timeout
  // in all: a hung executor must not hold up the run or its exit.
  const double deadline = now_s() + config_.heartbeat_timeout_s;
  for (auto& [id, executor] : executors_) {
    Frame reply;
    try {
      while (executor.alive && deadline > now_s() &&
             executor.transport->recv(reply, deadline - now_s()) == RecvStatus::kFrame &&
             reply.type != request.type)
        handle_frame(id, reply);
    } catch (const util::CheckError& e) {
      // Also runs from the destructor (via shutdown), so a bad frame ends
      // this executor's drain instead of propagating.
      FLINT_LOG_WARN << "executor " << id << " sent a bad frame while draining: " << e.what();
    }
  }
}

void Leader::flush_telemetry() { request_and_drain(Frame{MessageType::kFlush, {}}); }

void Leader::shutdown(const std::string& reason) {
  shut_down_ = true;
  ShutdownMsg msg;
  msg.reason = reason;
  request_and_drain(Frame{MessageType::kShutdown, msg.serialize()});
  for (auto& [id, executor] : executors_) {
    if (!executor.alive) continue;
    executor.transport->close();
    executor.alive = false;
  }
  obs::set_gauge("rpc.executors_alive", 0.0);
}

}  // namespace flint::rpc
