#include "flint/fl/fedavg.h"

#include <algorithm>

#include "flint/fl/aggregator.h"
#include "flint/fl/client_selection.h"
#include "flint/fl/trainer_pool.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

namespace {

/// A dispatched cohort member with its (pre-computed) fate.
struct CohortTask {
  sim::TaskSpec spec;
  sim::VirtualTime finish = 0.0;
  bool window_interrupted = false;
  double spent_compute_s = 0.0;
  std::uint64_t client_id = 0;
};

}  // namespace

RunResult run_fedavg(const SyncConfig& config) {
  const RunInputs& in = config.inputs;
  validate_common_inputs(in);
  FLINT_CHECK_GT(config.cohort_size, std::size_t{0});
  FLINT_CHECK_FINITE(config.round_deadline_s);
  FLINT_CHECK_GT(config.round_deadline_s, 0.0);
  RunTelemetryScope telemetry_scope(in);

  // Arrivals come from the materialized trace or the lazy window stream —
  // exactly one is set (validated above); results are identical either way.
  std::optional<sim::Leader> leader_storage;
  if (in.trace != nullptr)
    leader_storage.emplace(in.leader, *in.trace);
  else
    leader_storage.emplace(in.leader, *in.window_stream);
  sim::Leader& leader = *leader_storage;
  for (const auto& o : in.outages) leader.executors().add_outage(o);
  RunAttributionScope attribution_scope(in, leader);
  TaskDurationModel durations(in.duration, *in.catalog, *in.bandwidth);
  TrainerPool trainers(in);

  std::vector<float> params;
  std::unique_ptr<ml::Model> eval_model;
  if (!in.model_free) {
    params = in.model_template->get_flat_parameters();
    eval_model = in.model_template->clone();
  }

  RunResult result;
  ServerOptimizer server_opt(in.server_lr, in.server_momentum);
  ParticipationPool last_participation;
  std::uint64_t task_ids = 0;
  sim::VirtualTime t = 0.0;
  std::uint64_t round = 0;
  // Server-side RNG stream, checkpointed with the run. The sync runner draws
  // nothing from it today; restoring it keeps resume bit-identical the moment
  // any server-side stochastic decision lands (DESIGN.md §12).
  util::Rng server_rng = util::derive_stream(in.seed, kServerRngStreamId);
  std::uint64_t resume_count = 0;

  if (auto resume = load_resume_state(in, store::kCheckpointAlgoFedAvg)) {
    const store::SimCheckpoint& c = *resume;
    if (!in.model_free) {
      FLINT_CHECK_EQ(c.model_parameters.size(), params.size());
      params = c.model_parameters;
    }
    server_opt.restore_velocity(c.server_velocity);
    if (!c.server_rng_state.empty()) server_rng.set_state(c.server_rng_state);
    task_ids = c.next_task_id;
    round = c.round;
    t = c.virtual_time_s;
    last_participation.restore(c.last_participation);
    leader.arrivals().restore(static_cast<std::size_t>(c.arrival_cursor),
                              restore_requeued(c.requeued));
    leader.restore(c);
    attribution_scope.restore(c.client_accounts);
    result.eval_curve = restore_eval_curve(c.eval_curve);
    result.resumed_from_round = c.round;
    resume_count = c.resume_count + 1;
    result.resume_count = resume_count;
  }

  // Everything the resume path needs beyond the base fields Leader fills;
  // runs only when the cadence actually writes a checkpoint.
  auto fill_checkpoint = [&](store::SimCheckpoint& ckpt) {
    ckpt.run_seed = in.seed;
    ckpt.algo = store::kCheckpointAlgoFedAvg;
    ckpt.resume_count = resume_count;
    ckpt.server_velocity = server_opt.velocity();
    ckpt.server_rng_state.assign(server_rng.state().begin(), server_rng.state().end());
    ckpt.next_task_id = task_ids;
    ckpt.arrival_cursor = leader.arrivals().cursor();
    ckpt.requeued = checkpoint_requeued(leader.arrivals().requeued_snapshot());
    ckpt.last_participation = checkpoint_participation(last_participation);
    ckpt.metrics = leader.metrics().snapshot();
    ckpt.eval_curve = checkpoint_eval_curve(result.eval_curve);
    ckpt.client_accounts = attribution_scope.accounts();
  };

  auto evaluate = [&](sim::VirtualTime when) {
    if (in.model_free || in.test == nullptr) return;
    eval_model->set_flat_parameters(params);
    double metric = data::evaluate_examples(*eval_model, *in.test, in.domain, in.dense_dim,
                                            trainers.pool());
    result.eval_curve.push_back({when, round, metric, 0.0});
  };

  while (round < in.max_rounds && t < in.max_virtual_s) {
    t = leader.dispatch_gate(t);
    std::size_t dispatch_n = overcommitted_size(config.cohort_size, config.overcommit);
    auto exclude = [&](std::uint64_t client) -> std::optional<sim::VirtualTime> {
      auto when = last_participation.last(client);
      if (!when.has_value()) return std::nullopt;
      return *when + in.reparticipation_gap_s;  // <= now means eligible
    };
    auto cohort = select_cohort(leader.arrivals(), t, dispatch_n, exclude, config.cohort_wait_s);
    if (cohort.empty()) {
      auto next_time = leader.arrivals().peek_time(t);
      if (!next_time.has_value()) break;  // trace exhausted
      t = *next_time;
      continue;
    }

    sim::VirtualTime round_start = t;
    sim::VirtualTime deadline = round_start + config.round_deadline_s;
    std::vector<CohortTask> tasks;
    std::vector<sim::Arrival> rejoining;
    for (const auto& arr : cohort) {
      std::size_t examples = client_example_count(in, arr.client_id);
      if (examples == 0) continue;
      sim::VirtualTime dispatch_t = std::max<sim::VirtualTime>(arr.time, round_start);
      // Duration randomness comes from the task's own derived stream, keyed
      // by the id this task is about to take — a shared Rng here would make
      // the draw order (and thus every duration) depend on thread timing.
      util::Rng dur_rng = util::derive_stream(in.seed, task_ids, kRngStreamDuration);
      auto dur = durations.sample(arr.device_index, examples, dur_rng);
      CohortTask task;
      task.client_id = arr.client_id;
      task.spec = {task_ids++, arr.client_id, arr.device_index, round, dispatch_t,
                   dur.compute_s, dur.comm_s, examples, in.duration.update_bytes};
      task.finish = dispatch_t + dur.total_s();
      task.window_interrupted = task.finish > arr.window_end;
      if (task.window_interrupted) {
        task.finish = arr.window_end;
        task.spent_compute_s =
            std::min(dur.compute_s, std::max(0.0, arr.window_end - dispatch_t));
      } else {
        task.spent_compute_s = dur.compute_s;
      }
      leader.metrics().on_task_started();
      leader.executors().record_task(leader.executors().executor_of(arr.client_id));
      last_participation.record(arr.client_id, dispatch_t);
      // The device stays in its availability window after the task; re-offer
      // the window remainder so it can participate in later rounds.
      if (!task.window_interrupted && task.finish < arr.window_end) {
        sim::Arrival rejoin = arr;
        rejoin.time = task.finish;
        rejoining.push_back(rejoin);
      }
      tasks.push_back(std::move(task));
    }
    for (const auto& rejoin : rejoining)
      leader.arrivals().requeue(rejoin, rejoin.time);
    if (tasks.empty()) {
      t = round_start + 1.0;
      continue;
    }
    std::sort(tasks.begin(), tasks.end(),
              [](const CohortTask& a, const CohortTask& b) { return a.finish < b.finish; });

    // Decide fates: the first cohort_size on-time completions succeed;
    // later completions are stragglers (stale); window-cut tasks are
    // interrupted.
    std::vector<const CohortTask*> successes;
    sim::VirtualTime round_end = deadline;
    for (const auto& task : tasks) {
      sim::TaskResult tr;
      tr.spec = task.spec;
      tr.finish_time = task.finish;
      tr.spent_compute_s = task.spent_compute_s;
      if (task.window_interrupted) {
        tr.outcome = sim::TaskOutcome::kInterrupted;
      } else if (task.finish <= deadline && successes.size() < config.cohort_size) {
        tr.outcome = sim::TaskOutcome::kSucceeded;
        successes.push_back(&task);
        if (successes.size() == config.cohort_size) round_end = task.finish;
      } else {
        tr.outcome = sim::TaskOutcome::kStale;
      }
      leader.metrics().on_task_finished(tr);
    }

    if (successes.empty()) {
      // Nothing aggregated this round; move past the deadline and retry.
      t = deadline;
      continue;
    }

    ++round;
    // The sync runner drives virtual time by hand (no EventQueue), so it
    // publishes the clock itself: round_start before the span opens and
    // round_end before it closes, giving the span its virtual duration.
    obs::advance_virtual_time(round_start);
    FLINT_TRACE_SPAN("fedavg.round", "fl");
    obs::add_counter("fl.rounds");
    obs::set_gauge("fl.round", static_cast<double>(round));
    obs::record_histogram("fl.round_duration_s", round_end - round_start, 0.0, 7200.0, 48);
    if (!in.model_free) {
      UpdateAccumulator acc(params.size());
      LocalTrainConfig local = in.local;
      local.lr = in.client_lr.at(round - 1);
      std::size_t participants = successes.size();
      // Fan the cohort across whatever execution mode the run uses (serial /
      // thread pool / rpc executors), then reduce in the fixed `successes`
      // order — consuming in submission order imposes the serial reduction
      // sequence, so the accumulator sees identical updates on every mode.
      // `params` is only mutated after every pending update is consumed.
      std::vector<PendingUpdate> pending;
      pending.reserve(successes.size());
      for (const CohortTask* task : successes) {
        pending.push_back(trainers.submit_update(
            in, in.dataset->client(task->client_id).examples, params, local,
            task->spec.task_id, task->client_id, round, participants));
      }
      for (auto& p : pending) {
        ClientUpdate update = p.get();
        acc.add(update.train.delta, update.weight);
      }
      auto mean = acc.weighted_mean();
      server_opt.step(params, mean);
    }

    leader.metrics().on_round({round, round_start, round_end,
                               successes.size(), /*mean_staleness=*/0.0});
    if (in.eval_every_rounds > 0 && round % in.eval_every_rounds == 0) evaluate(round_end);
    // Checkpoint after the round's eval so the snapshot carries the complete
    // state through this round; a resume then replays only future rounds.
    leader.on_aggregation(round, params, leader.metrics().tasks_succeeded(), fill_checkpoint);
    if (in.round_hook) in.round_hook(round);
    t = round_end;
    obs::advance_virtual_time(round_end);  // closes the round span at round_end
  }

  result.virtual_duration_s = t;
  result.rounds = round;
  if (!in.model_free && in.test != nullptr) {
    eval_model->set_flat_parameters(params);
    result.final_metric = data::evaluate_examples(*eval_model, *in.test, in.domain,
                                                  in.dense_dim, trainers.pool());
    if (result.eval_curve.empty() || result.eval_curve.back().round != round)
      result.eval_curve.push_back({t, round, result.final_metric, 0.0});
  }
  result.final_parameters = std::move(params);
  result.metrics = leader.metrics();
  attribution_scope.finish(result);
  telemetry_scope.finish(result);
  return result;
}

}  // namespace flint::fl
