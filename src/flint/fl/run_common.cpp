#include "flint/fl/run_common.h"

#include <algorithm>

#include "flint/rpc/leader.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

std::size_t client_example_count(const RunInputs& inputs, std::uint64_t client_id) {
  if (inputs.dataset != nullptr && inputs.dataset->contains(client_id))
    return inputs.dataset->client(client_id).size();
  if (inputs.client_example_counts != nullptr &&
      client_id < inputs.client_example_counts->size())
    return (*inputs.client_example_counts)[client_id];
  if (inputs.example_count_fn) return inputs.example_count_fn(client_id);
  return 0;
}

void validate_common_inputs(const RunInputs& inputs) {
  FLINT_CHECK_MSG((inputs.trace != nullptr) != (inputs.window_stream != nullptr),
                  "run needs exactly one of an availability trace or a window stream");
  FLINT_CHECK_MSG(inputs.catalog != nullptr, "run needs a device catalog");
  FLINT_CHECK_MSG(inputs.bandwidth != nullptr, "run needs a bandwidth model");
  if (inputs.model_free) {
    FLINT_CHECK_MSG(inputs.client_example_counts != nullptr || inputs.dataset != nullptr ||
                        static_cast<bool>(inputs.example_count_fn),
                    "model-free run needs client example counts, a dataset, or a count fn");
  } else {
    FLINT_CHECK_MSG(inputs.model_template != nullptr, "run needs a model template");
    FLINT_CHECK_MSG(inputs.dataset != nullptr, "run needs a federated dataset");
  }
  FLINT_CHECK_GT(inputs.max_rounds, std::uint64_t{0});
  FLINT_CHECK_FINITE(inputs.server_lr);
  FLINT_CHECK_GT(inputs.server_lr, 0.0);
  FLINT_CHECK_FINITE(inputs.server_momentum);
  FLINT_CHECK_GE(inputs.server_momentum, 0.0);
  FLINT_CHECK_LT(inputs.server_momentum, 1.0);
  FLINT_CHECK_FINITE(inputs.max_virtual_s);
  FLINT_CHECK_GT(inputs.max_virtual_s, 0.0);
  FLINT_CHECK_FINITE(inputs.reparticipation_gap_s);
  FLINT_CHECK_GE(inputs.reparticipation_gap_s, 0.0);
  FLINT_CHECK_GT(inputs.threads, std::size_t{0});
}

RunTelemetryScope::RunTelemetryScope(const RunInputs& inputs)
    : telemetry_(inputs.telemetry), rpc_leader_(inputs.rpc_leader) {
  if (telemetry_ != nullptr && obs::current() != telemetry_) scope_.emplace(telemetry_);
}

void RunTelemetryScope::finish(RunResult& result) {
  if (telemetry_ == nullptr) return;
  if (rpc_leader_ != nullptr) rpc_leader_->flush_telemetry();
  telemetry_->snapshot_now();
  if (telemetry_->config().metrics_enabled)
    result.telemetry = telemetry_->metrics().snapshot();
}

device::WindowStream& arrival_windows(const RunInputs& inputs,
                                      std::optional<device::TraceWindowStream>& trace_windows) {
  if (inputs.window_stream != nullptr) return *inputs.window_stream;
  return trace_windows.emplace(*inputs.trace);
}

RunAttributionScope::RunAttributionScope(const RunInputs& inputs, sim::Leader& leader,
                                         const device::WindowStream& windows)
    : enabled_(inputs.collect_ledger),
      leader_(&leader),
      catalog_(inputs.catalog),
      trace_(inputs.trace),
      windows_(&windows) {
  if (!enabled_) return;
  if (trace_ != nullptr) horizon_ = trace_->horizon();
  leader.metrics().attach_ledger(&ledger_);
}

void RunAttributionScope::on_dispatch(std::uint64_t client_id, std::size_t device_index) {
  if (enabled_ && !ledger_.contains(client_id)) classify(client_id, device_index);
}

void RunAttributionScope::classify(std::uint64_t client_id,
                                   std::optional<std::size_t> device_index) {
  std::uint32_t tier = obs::ClientLedger::kUnclassified;
  if (device_index.has_value())
    tier = static_cast<std::uint32_t>(device::tier_of(catalog_->profile(*device_index)));
  std::uint32_t cohort = obs::ClientLedger::kUnclassified;
  if (trace_ != nullptr) {
    double coverage = horizon_ > 0.0 ? trace_->window_seconds(client_id) / horizon_ : 1.0;
    cohort = static_cast<std::uint32_t>(coverage < 0.05   ? AvailabilityCohort::kRare
                                        : coverage < 0.50 ? AvailabilityCohort::kRegular
                                                          : AvailabilityCohort::kAlwaysOn);
  }
  ledger_.register_client(client_id, tier, cohort,
                          static_cast<std::uint32_t>(leader_->executors().executor_of(client_id)));
}

void RunAttributionScope::finish(RunResult& result) {
  if (!enabled_) return;
  leader_->metrics().attach_ledger(nullptr);
  result.ledger = ledger_.summary();
  // The metrics copy in the result must not carry a pointer to this scope's
  // (stack-lifetime) ledger.
  result.metrics.attach_ledger(nullptr);
}

std::vector<store::CheckpointClientAccount> RunAttributionScope::accounts() const {
  std::vector<store::CheckpointClientAccount> out;
  if (!enabled_) return out;
  out.reserve(ledger_.client_count());
  for (std::uint32_t s = 0; s < ledger_.client_count(); ++s) {
    obs::ClientLedgerEntry e = ledger_.entry_at(s);
    // Skip clients with no activity yet: they exist only as registrations,
    // which the resumed run re-derives when it dispatches them.
    if (e.tasks_finished() == 0 && e.compute_s == 0.0 && e.bytes_down == 0) continue;
    out.push_back({e.client_id, e.tasks_succeeded, e.tasks_interrupted, e.tasks_stale,
                   e.tasks_failed, e.compute_s, e.wasted_compute_s, e.bytes_down, e.bytes_up});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.client_id < b.client_id; });
  return out;
}

void RunAttributionScope::restore(const std::vector<store::CheckpointClientAccount>& accounts) {
  if (!enabled_) return;
  for (const auto& a : accounts) {
    if (!ledger_.contains(a.client_id)) classify(a.client_id, windows_->device_of(a.client_id));
    obs::ClientLedgerEntry e;
    e.client_id = a.client_id;
    e.tasks_succeeded = a.tasks_succeeded;
    e.tasks_interrupted = a.tasks_interrupted;
    e.tasks_stale = a.tasks_stale;
    e.tasks_failed = a.tasks_failed;
    e.compute_s = a.compute_s;
    e.wasted_compute_s = a.wasted_compute_s;
    e.bytes_down = a.bytes_down;
    e.bytes_up = a.bytes_up;
    ledger_.restore_account(e);
  }
}

std::optional<store::SimCheckpoint> load_resume_state(const RunInputs& inputs,
                                                      std::uint8_t algo) {
  if (inputs.resume_from == nullptr) return std::nullopt;
  std::optional<store::SimCheckpoint> ckpt = inputs.resume_from->latest();
  if (!ckpt.has_value()) {
    FLINT_LOG_INFO << "resume requested but no usable checkpoint in "
                   << inputs.resume_from->dir() << "; starting fresh";
    return std::nullopt;
  }
  FLINT_CHECK_MSG(ckpt->algo == algo, "checkpoint algorithm "
                                          << static_cast<int>(ckpt->algo)
                                          << " does not match this runner ("
                                          << static_cast<int>(algo) << ")");
  FLINT_CHECK_MSG(ckpt->run_seed == inputs.seed,
                  "checkpoint seed " << ckpt->run_seed << " does not match run seed "
                                     << inputs.seed << "; refusing to splice lineages");
  FLINT_LOG_INFO << "resuming from checkpoint round " << ckpt->round << " at t="
                 << ckpt->virtual_time_s << "s (resume #" << ckpt->resume_count + 1 << ")";
  return ckpt;
}

std::vector<store::CheckpointEvalPoint> checkpoint_eval_curve(
    const std::vector<sim::EvalPoint>& curve) {
  std::vector<store::CheckpointEvalPoint> out;
  out.reserve(curve.size());
  for (const auto& e : curve) out.push_back({e.time, e.round, e.metric, e.train_loss});
  return out;
}

std::vector<sim::EvalPoint> restore_eval_curve(
    const std::vector<store::CheckpointEvalPoint>& curve) {
  std::vector<sim::EvalPoint> out;
  out.reserve(curve.size());
  for (const auto& e : curve) out.push_back({e.time, e.round, e.metric, e.train_loss});
  return out;
}

std::vector<store::CheckpointRequeuedArrival> checkpoint_requeued(
    const std::vector<sim::Arrival>& requeued) {
  std::vector<store::CheckpointRequeuedArrival> out;
  out.reserve(requeued.size());
  for (const auto& a : requeued)
    out.push_back({a.time, a.client_id, static_cast<std::uint64_t>(a.device_index),
                   a.window_end});
  return out;
}

std::vector<sim::Arrival> restore_requeued(
    const std::vector<store::CheckpointRequeuedArrival>& requeued) {
  std::vector<sim::Arrival> out;
  out.reserve(requeued.size());
  for (const auto& a : requeued)
    out.push_back({a.time, a.client_id, static_cast<std::size_t>(a.device_index),
                   a.window_end});
  return out;
}

std::vector<std::pair<std::uint64_t, double>> ParticipationPool::sorted_entries() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(keys_.size());
  for (std::uint32_t s = 0; s < keys_.size(); ++s) out.emplace_back(keys_.key_at(s), times_[s]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace flint::fl
