// Leader-node plumbing shared by the sync (FedAvg) and async (FedBuff)
// runners: the event queue, the arrival scheduler, the executor pool with
// health gating, metrics, and periodic checkpointing (§3.4).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "flint/sim/event_queue.h"
#include "flint/sim/executor.h"
#include "flint/sim/scheduler.h"
#include "flint/sim/sim_metrics.h"
#include "flint/store/checkpoint.h"

namespace flint::sim {

/// Leader configuration.
struct LeaderConfig {
  std::size_t executor_count = 20;
  /// Write a checkpoint every N aggregation rounds (0 disables).
  std::uint64_t checkpoint_every_rounds = 0;
  /// Where checkpoints go; required when checkpoint_every_rounds > 0.
  store::CheckpointStore* checkpoint_store = nullptr;
};

/// Shared leader state. FL runners own one and drive it.
class Leader {
 public:
  /// Arrivals come from `windows` (DESIGN.md §17), which must outlive the
  /// leader.
  Leader(const LeaderConfig& config, device::WindowStream& windows);

  EventQueue& queue() { return queue_; }
  ArrivalScheduler& arrivals() { return arrivals_; }
  ExecutorPool& executors() { return executors_; }
  SimMetrics& metrics() { return metrics_; }
  const SimMetrics& metrics() const { return metrics_; }

  /// Earliest time >= t at which tasks may be dispatched: the leader halts
  /// dispatching while any executor is unhealthy.
  VirtualTime dispatch_gate(VirtualTime t) const { return executors_.next_all_healthy(t); }

  /// Record an aggregation; writes a checkpoint when the cadence triggers.
  /// `fill_state`, when provided, is called on the partially-built checkpoint
  /// (base fields set) so the runner can add its full resume state — server
  /// optimizer/RNG, scheduler cursors, metrics, the FedBuff buffer. It runs
  /// only when a checkpoint is actually written.
  void on_aggregation(std::uint64_t round, const std::vector<float>& model_parameters,
                      std::uint64_t tasks_completed,
                      const std::function<void(store::SimCheckpoint&)>& fill_state = nullptr);

  /// Restore aggregation progress from a checkpoint (resume path): the last
  /// aggregation round, the checkpoints-written count, and the metrics state.
  void restore(const store::SimCheckpoint& checkpoint);

  /// Checkpoints written so far (including those before a resume).
  std::uint64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  LeaderConfig config_;
  EventQueue queue_;
  ArrivalScheduler arrivals_;
  ExecutorPool executors_;
  SimMetrics metrics_;
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t last_aggregation_round_ = 0;
};

}  // namespace flint::sim
