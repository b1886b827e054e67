#include "flint/fl/fedbuff.h"

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <unordered_set>

#include "flint/fl/aggregator.h"
#include "flint/fl/trainer_pool.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

namespace {

struct InFlight;

/// Whole-run mutable state, shared by the event callbacks.
struct FedBuffState {
  const AsyncConfig* config = nullptr;
  std::unique_ptr<sim::Leader> leader;
  std::unique_ptr<TaskDurationModel> durations;
  std::unique_ptr<TrainerPool> trainers;
  std::unique_ptr<ml::Model> eval_model;
  std::unique_ptr<UpdateAccumulator> accumulator;
  std::unique_ptr<ServerOptimizer> server_opt;

  std::vector<float> params;
  /// Immutable copy of `params` for in-flight training jobs. Workers train
  /// against the snapshot their task captured at dispatch, so aggregate()
  /// can mutate `params` while clients are still training — exactly the
  /// async-staleness semantics the serial path simulates. Refreshed (copy,
  /// not mutation) after every server step; only maintained when a pool
  /// exists.
  std::shared_ptr<const std::vector<float>> params_snapshot;
  std::uint64_t version = 0;  ///< server model version (aggregations so far)
  std::size_t running = 0;
  std::unordered_set<std::uint64_t> busy;
  ParticipationPool last_participation;
  std::uint64_t task_ids = 0;
  double staleness_sum = 0.0;  ///< over the current buffer
  sim::VirtualTime round_start = 0.0;
  bool pump_scheduled = false;
  sim::VirtualTime pump_time = 0.0;  ///< when the scheduled pump retry fires
  std::uint64_t pump_stamp = 0;      ///< its scheduling stamp
  bool done = false;
  sim::VirtualTime last_aggregation_time = 0.0;
  /// Scheduling stamp counter: every EventQueue::schedule() this runner makes
  /// takes the next stamp, mirroring the queue's FIFO tie-break for same-time
  /// events. Checkpointed per pending event so a resumed run can re-schedule
  /// them in the original relative order (DESIGN.md §12).
  std::uint64_t next_stamp = 0;
  /// Pending completion events by task id; the checkpoint serializes these so
  /// resume can rebuild the event queue.
  std::map<std::uint64_t, std::shared_ptr<InFlight>> in_flight;
  /// Server-side RNG stream, checkpointed with the run. The async runner
  /// draws nothing from it today; restoring it keeps resume bit-identical the
  /// moment any server-side stochastic decision lands (DESIGN.md §12).
  util::Rng server_rng{1};
  std::uint64_t resume_count = 0;
  RunAttributionScope* attribution = nullptr;
  RunResult result;

  // Telemetry handles for the per-task hot path (single-threaded pump).
  obs::CachedCounter dispatched_counter;
  obs::CachedCounter aggregations_counter;
  obs::CachedHistogram staleness_hist;
  obs::CachedHistogram round_duration_hist;
  obs::CachedGauge buffer_gauge;
  obs::CachedGauge round_gauge;
  obs::CachedGauge in_flight_gauge;
};

/// One in-flight task: its spec plus the local update — computed eagerly at
/// dispatch on the serial path, in flight on a pool worker, or leased to an
/// rpc executor (`pending` abstracts all three; the completion handler
/// consumes it in virtual-time event order and therefore reduces
/// deterministically).
struct InFlight {
  sim::TaskSpec spec;
  double spent_compute_s = 0.0;
  sim::VirtualTime window_end = 0.0;
  sim::VirtualTime finish_time = 0.0;  ///< when the completion event fires
  bool interrupted = false;            ///< completion outcome decided at dispatch
  std::uint64_t stamp = 0;             ///< FedBuffState::next_stamp at schedule time
  ClientUpdate update;
  PendingUpdate pending;
};

void pump(FedBuffState& s);

void evaluate(FedBuffState& s, sim::VirtualTime when) {
  const RunInputs& in = s.config->inputs;
  if (in.model_free || in.test == nullptr) return;
  FLINT_TRACE_SPAN("fedbuff.evaluate", "fl");
  s.eval_model->set_flat_parameters(s.params);
  double metric = data::evaluate_examples(*s.eval_model, *in.test, in.domain, in.dense_dim,
                                          s.trainers->pool());
  s.result.eval_curve.push_back({when, s.version, metric, 0.0});
}

/// Everything the resume path needs beyond the base fields Leader fills; runs
/// only when the cadence actually writes a checkpoint.
void fill_checkpoint(FedBuffState& s, store::SimCheckpoint& ckpt) {
  const RunInputs& in = s.config->inputs;
  ckpt.run_seed = in.seed;
  ckpt.algo = store::kCheckpointAlgoFedBuff;
  ckpt.resume_count = s.resume_count;
  ckpt.server_velocity = s.server_opt->velocity();
  ckpt.server_rng_state.assign(s.server_rng.state().begin(), s.server_rng.state().end());
  ckpt.next_task_id = s.task_ids;
  ckpt.arrival_cursor = s.leader->arrivals().cursor();
  ckpt.requeued = checkpoint_requeued(s.leader->arrivals().requeued_snapshot());
  ckpt.last_participation = checkpoint_participation(s.last_participation);
  ckpt.metrics = s.leader->metrics().snapshot();
  ckpt.eval_curve = checkpoint_eval_curve(s.result.eval_curve);
  if (s.attribution != nullptr) ckpt.client_accounts = s.attribution->accounts();
  ckpt.has_fedbuff = true;
  store::CheckpointFedBuff& fb = ckpt.fedbuff;
  fb.accumulator_sum = s.accumulator->sum();
  fb.accumulator_weight_sum = s.accumulator->weight_sum();
  fb.accumulator_count = s.accumulator->count();
  fb.staleness_sum = s.staleness_sum;
  fb.round_start = s.round_start;
  fb.last_aggregation_time = s.last_aggregation_time;
  fb.pump_scheduled = s.pump_scheduled;
  fb.pump_time = s.pump_time;
  fb.pump_stamp = s.pump_stamp;
  fb.next_stamp = s.next_stamp;
  fb.in_flight.reserve(s.in_flight.size());
  for (const auto& [id, task] : s.in_flight) {
    // Join a still-running worker now: the update is a pure function of the
    // dispatch-time snapshot, so materializing it early cannot change it —
    // the completion handler will simply find it already joined.
    if (task->pending.valid()) task->update = task->pending.get();
    store::CheckpointInFlightTask rec;
    rec.task_id = task->spec.task_id;
    rec.client_id = task->spec.client_id;
    rec.device_index = static_cast<std::uint64_t>(task->spec.device_index);
    rec.model_version = task->spec.model_version;
    rec.dispatch_time = task->spec.dispatch_time;
    rec.compute_s = task->spec.compute_s;
    rec.comm_s = task->spec.comm_s;
    rec.examples = static_cast<std::uint64_t>(task->spec.examples);
    rec.update_bytes = task->spec.update_bytes;
    rec.spent_compute_s = task->spent_compute_s;
    rec.window_end = task->window_end;
    rec.finish_time = task->finish_time;
    rec.interrupted = task->interrupted;
    rec.stamp = task->stamp;
    rec.update_weight = task->update.weight;
    rec.update_delta = task->update.train.delta;
    fb.in_flight.push_back(std::move(rec));
  }
}

void aggregate(FedBuffState& s) {
  FLINT_TRACE_SPAN("fedbuff.aggregate", "fl");
  const RunInputs& in = s.config->inputs;
  sim::VirtualTime now = s.leader->queue().now();
  double mean_staleness =
      s.accumulator->empty() ? 0.0
                             : s.staleness_sum / static_cast<double>(s.accumulator->count());
  // Every buffered update passed the staleness gate individually, so the
  // buffer mean must respect the configured bound too.
  FLINT_CHECK_LE(mean_staleness, static_cast<double>(s.config->max_staleness));
  std::size_t aggregated = s.accumulator->count();
  if (!in.model_free) {
    auto mean = s.accumulator->weighted_mean();
    s.server_opt->step(s.params, mean);
    if (s.trainers->pool() != nullptr)
      s.params_snapshot = std::make_shared<const std::vector<float>>(s.params);
  }
  s.accumulator->reset();
  s.staleness_sum = 0.0;
  ++s.version;
  s.leader->metrics().on_round({s.version, s.round_start, now, aggregated, mean_staleness});
  if (auto* g = s.round_gauge.resolve("fl.round")) g->set(static_cast<double>(s.version));
  if (auto* c = s.aggregations_counter.resolve("fl.aggregations")) c->add(1);
  if (auto* h = s.round_duration_hist.resolve("fl.round_duration_s", 0.0, 7200.0, 48))
    h->record(now - s.round_start);
  s.round_start = now;
  s.last_aggregation_time = now;
  FLINT_LOG_DEBUG << "fedbuff aggregation v=" << s.version << " t=" << now
                  << " running=" << s.running;
  if (in.eval_every_rounds > 0 && s.version % in.eval_every_rounds == 0) evaluate(s, now);
  if (s.version >= in.max_rounds || now >= in.max_virtual_s) s.done = true;
  // Checkpoint last, after this round's eval point is recorded, so the
  // snapshot carries the complete round and a resume replays only the future.
  s.leader->on_aggregation(s.version, s.params, s.leader->metrics().tasks_succeeded(),
                           [&s](store::SimCheckpoint& ckpt) { fill_checkpoint(s, ckpt); });
  if (in.round_hook) in.round_hook(s.version);
}

void on_task_end(FedBuffState& s, InFlight& task, bool interrupted) {
  s.in_flight.erase(task.spec.task_id);
  if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
    g->set(static_cast<double>(s.in_flight.size()));
  --s.running;
  s.busy.erase(task.spec.client_id);

  sim::TaskResult tr;
  tr.spec = task.spec;
  tr.finish_time = s.leader->queue().now();
  tr.spent_compute_s = task.spent_compute_s;
  bool buffer_full = false;
  if (interrupted) {
    tr.outcome = sim::TaskOutcome::kInterrupted;
  } else {
    // Join the worker if the update is still in flight — also for updates
    // about to be discarded as stale, so no task outlives its completion
    // event. Completions run in virtual-time order, independent of thread
    // count, so the accumulator sees the same sequence as the serial path.
    if (task.pending.valid()) task.update = task.pending.get();
    // Staleness bound: a task can never have trained on a model version the
    // server hasn't produced yet (unsigned subtraction would wrap).
    FLINT_CHECK_GE(s.version, task.spec.model_version);
    std::uint64_t staleness = s.version - task.spec.model_version;
    if (s.done || staleness > s.config->max_staleness) {
      tr.outcome = sim::TaskOutcome::kStale;
    } else {
      tr.outcome = sim::TaskOutcome::kSucceeded;
      // Staleness distribution (Figure 8's control variable) as a live
      // histogram, bucketed per model-version lag.
      if (auto* h = s.staleness_hist.resolve(
              "fl.staleness", 0.0, static_cast<double>(s.config->max_staleness) + 1.0,
              std::min<std::size_t>(s.config->max_staleness + 1, 64)))
        h->record(static_cast<double>(staleness));
      if (!s.config->inputs.model_free) {
        double w = s.config->staleness_weighting ? staleness_weight(staleness) : 1.0;
        s.accumulator->add(task.update.train.delta, w);
      } else {
        // Model-free mode still tracks buffer occupancy with unit weights.
        static thread_local std::vector<float> kZero{0.0f};
        s.accumulator->add(kZero, 1.0);
      }
      s.staleness_sum += static_cast<double>(staleness);
      if (auto* g = s.buffer_gauge.resolve("fl.buffer_occupancy"))
        g->set(static_cast<double>(s.accumulator->count()));
      buffer_full = s.accumulator->count() >= s.config->buffer_size;
    }
  }
  s.leader->metrics().on_task_finished(tr);
  // The device stays available after a completed task; re-offer the window
  // remainder so it can participate again (subject to the cooldown gap).
  if (!interrupted && tr.finish_time < task.window_end) {
    sim::Arrival rejoin{tr.finish_time, task.spec.client_id, task.spec.device_index,
                        task.window_end};
    s.leader->arrivals().requeue(rejoin, tr.finish_time);
  }
  // Aggregate only after this completion is fully recorded (metrics + rejoin
  // requeue): the checkpoint written inside aggregate() must snapshot a state
  // with no half-processed task, or a resume would lose the rejoin.
  if (buffer_full) aggregate(s);
  pump(s);
}

void dispatch(FedBuffState& s, const sim::Arrival& arrival) {
  FLINT_TRACE_SPAN("fedbuff.dispatch", "fl");
  const RunInputs& in = s.config->inputs;
  sim::VirtualTime now = s.leader->queue().now();
  if (auto* c = s.dispatched_counter.resolve("fl.tasks_dispatched")) c->add(1);
  std::size_t examples = client_example_count(in, arrival.client_id);
  FLINT_DCHECK(examples > 0);
  // Per-task derived duration stream (keyed by the id this task takes below),
  // so durations never depend on draw order across concurrent tasks.
  util::Rng dur_rng = util::derive_stream(in.seed, s.task_ids, kRngStreamDuration);
  auto dur = s.durations->sample(arrival.device_index, examples, dur_rng);

  auto task = std::make_shared<InFlight>();
  task->spec = {s.task_ids++, arrival.client_id, arrival.device_index,
                s.version,    now,               dur.compute_s,
                dur.comm_s,   examples,          in.duration.update_bytes};
  task->window_end = arrival.window_end;
  ++s.running;
  s.busy.insert(arrival.client_id);
  s.last_participation.record(arrival.client_id, now);
  s.leader->metrics().on_task_started();
  s.leader->executors().record_task(s.leader->executors().executor_of(arrival.client_id));

  bool will_interrupt = now + dur.total_s() > arrival.window_end;
  if (will_interrupt) {
    task->spent_compute_s = std::min(dur.compute_s, std::max(0.0, arrival.window_end - now));
    task->finish_time = arrival.window_end;
    task->interrupted = true;
    task->stamp = s.next_stamp++;
    s.in_flight[task->spec.task_id] = task;
    if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
      g->set(static_cast<double>(s.in_flight.size()));
    s.leader->queue().schedule(arrival.window_end,
                               [&s, task] { on_task_end(s, *task, /*interrupted=*/true); });
    return;
  }
  task->spent_compute_s = dur.compute_s;
  task->finish_time = now + dur.total_s();
  task->stamp = s.next_stamp++;
  s.in_flight[task->spec.task_id] = task;
  if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
    g->set(static_cast<double>(s.in_flight.size()));
  if (!in.model_free) {
    // The client trains against the global parameters as of dispatch time;
    // computing the update from a dispatch-time snapshot is semantically
    // identical to computing it at completion. On the pool path the snapshot
    // shared_ptr rides along as the keepalive; the serial and rpc paths read
    // the live params immediately.
    LocalTrainConfig local = in.local;
    local.lr = in.client_lr.at(s.version);
    const auto& client_data = in.dataset->client(arrival.client_id).examples;
    std::shared_ptr<const std::vector<float>> snapshot = s.params_snapshot;
    std::span<const float> param_view =
        snapshot != nullptr ? std::span<const float>(*snapshot)
                            : std::span<const float>(s.params);
    task->pending = s.trainers->submit_update(in, client_data, param_view, local,
                                              task->spec.task_id, arrival.client_id,
                                              s.version, s.config->buffer_size, snapshot);
  }
  s.leader->queue().schedule(task->finish_time,
                             [&s, task] { on_task_end(s, *task, /*interrupted=*/false); });
}

void pump(FedBuffState& s) {
  if (s.done) return;
  const RunInputs& in = s.config->inputs;
  sim::VirtualTime now = s.leader->queue().now();

  // Fault-tolerance gate: halt dispatching while any executor is unhealthy.
  sim::VirtualTime gate = s.leader->dispatch_gate(now);
  if (gate > now) {
    if (!s.pump_scheduled) {
      s.pump_scheduled = true;
      s.pump_time = gate;
      s.pump_stamp = s.next_stamp++;
      s.leader->queue().schedule(gate, [&s] {
        s.pump_scheduled = false;
        pump(s);
      });
    }
    return;
  }

  while (s.running < s.config->max_concurrency) {
    auto next_time = s.leader->arrivals().peek_time(now);
    if (!next_time.has_value()) return;  // trace exhausted
    if (*next_time > now) {
      if (!s.pump_scheduled) {
        s.pump_scheduled = true;
        s.pump_time = *next_time;
        s.pump_stamp = s.next_stamp++;
        s.leader->queue().schedule(*next_time, [&s] {
          s.pump_scheduled = false;
          pump(s);
        });
      }
      return;
    }
    auto arrival = s.leader->arrivals().next(now);
    FLINT_DCHECK(arrival.has_value());
    if (s.busy.count(arrival->client_id) > 0) {
      // Stale duplicate entry for a client that is mid-task: drop it. The
      // completion handler requeues a rejoin for the window remainder.
      continue;
    }
    auto when = s.last_participation.last(arrival->client_id);
    if (when.has_value()) {
      // Compute the cooldown lapse once and branch on it, so the retry time
      // is strictly in the future whenever we defer (deriving the condition
      // and the retry from different float expressions can disagree in the
      // last ulp and livelock the pump).
      sim::VirtualTime lapse = *when + in.reparticipation_gap_s;
      if (lapse > now) {
        s.leader->arrivals().requeue(*arrival, lapse);
        continue;
      }
    }
    if (client_example_count(in, arrival->client_id) == 0) continue;
    dispatch(s, *arrival);
  }
}

}  // namespace

RunResult run_fedbuff(const AsyncConfig& config) {
  const RunInputs& in = config.inputs;
  validate_common_inputs(in);
  FLINT_CHECK_GT(config.buffer_size, std::size_t{0});
  FLINT_CHECK_GT(config.max_concurrency, std::size_t{0});
  RunTelemetryScope telemetry_scope(in);

  FedBuffState s;
  s.config = &config;
  // Arrivals come from the materialized trace or the lazy window stream —
  // exactly one is set (validated above); results are identical either way.
  s.leader = in.trace != nullptr ? std::make_unique<sim::Leader>(in.leader, *in.trace)
                                 : std::make_unique<sim::Leader>(in.leader, *in.window_stream);
  for (const auto& o : in.outages) s.leader->executors().add_outage(o);
  RunAttributionScope attribution_scope(in, *s.leader);
  s.durations = std::make_unique<TaskDurationModel>(in.duration, *in.catalog, *in.bandwidth);
  s.server_opt = std::make_unique<ServerOptimizer>(in.server_lr, in.server_momentum);
  s.trainers = std::make_unique<TrainerPool>(in);
  if (!in.model_free) {
    s.params = in.model_template->get_flat_parameters();
    s.eval_model = in.model_template->clone();
    s.accumulator = std::make_unique<UpdateAccumulator>(s.params.size());
    if (s.trainers->pool() != nullptr)
      s.params_snapshot = std::make_shared<const std::vector<float>>(s.params);
  } else {
    s.accumulator = std::make_unique<UpdateAccumulator>(1);
  }
  s.server_rng = util::derive_stream(in.seed, kServerRngStreamId);
  s.attribution = &attribution_scope;

  if (auto resume = load_resume_state(in, store::kCheckpointAlgoFedBuff)) {
    const store::SimCheckpoint& c = *resume;
    FLINT_CHECK_MSG(c.has_fedbuff, "fedbuff checkpoint lacks the async-runner section");
    if (!in.model_free) {
      FLINT_CHECK_EQ(c.model_parameters.size(), s.params.size());
      s.params = c.model_parameters;
      if (s.trainers->pool() != nullptr)
        s.params_snapshot = std::make_shared<const std::vector<float>>(s.params);
    }
    s.server_opt->restore_velocity(c.server_velocity);
    if (!c.server_rng_state.empty()) s.server_rng.set_state(c.server_rng_state);
    s.version = c.round;
    s.task_ids = c.next_task_id;
    s.last_participation.restore(c.last_participation);
    s.leader->arrivals().restore(static_cast<std::size_t>(c.arrival_cursor),
                                 restore_requeued(c.requeued));
    s.leader->restore(c);
    attribution_scope.restore(c.client_accounts);
    s.result.eval_curve = restore_eval_curve(c.eval_curve);
    const store::CheckpointFedBuff& fb = c.fedbuff;
    s.accumulator->restore(fb.accumulator_sum, fb.accumulator_weight_sum,
                           static_cast<std::size_t>(fb.accumulator_count));
    s.staleness_sum = fb.staleness_sum;
    s.round_start = fb.round_start;
    s.last_aggregation_time = fb.last_aggregation_time;
    s.next_stamp = fb.next_stamp;
    // The done flag is never serialized: it is re-derived from this run's
    // limits, so a resume with a larger max_rounds continues the lineage.
    s.done = s.version >= in.max_rounds || c.virtual_time_s >= in.max_virtual_s;
    s.result.resumed_from_round = c.round;
    s.resume_count = c.resume_count + 1;
    s.result.resume_count = s.resume_count;

    // Fast-forward the clock, then rebuild the pending event set in its
    // original scheduling (stamp) order so the queue's same-time tie-break
    // matches the uninterrupted run.
    s.leader->queue().advance_to(c.virtual_time_s);
    struct RestoredEvent {
      std::uint64_t stamp = 0;
      sim::VirtualTime when = 0.0;
      std::function<void()> fire;
    };
    std::vector<RestoredEvent> events;
    events.reserve(fb.in_flight.size() + 1);
    for (const auto& rec : fb.in_flight) {
      auto task = std::make_shared<InFlight>();
      task->spec.task_id = rec.task_id;
      task->spec.client_id = rec.client_id;
      task->spec.device_index = static_cast<std::size_t>(rec.device_index);
      task->spec.model_version = rec.model_version;
      task->spec.dispatch_time = rec.dispatch_time;
      task->spec.compute_s = rec.compute_s;
      task->spec.comm_s = rec.comm_s;
      task->spec.examples = static_cast<std::size_t>(rec.examples);
      task->spec.update_bytes = rec.update_bytes;
      task->spent_compute_s = rec.spent_compute_s;
      task->window_end = rec.window_end;
      task->finish_time = rec.finish_time;
      task->interrupted = rec.interrupted;
      task->stamp = rec.stamp;
      // The checkpoint carries the materialized update (fill_checkpoint joins
      // in-flight workers before serializing), so no re-training is needed.
      task->update.weight = rec.update_weight;
      task->update.train.delta = rec.update_delta;
      s.in_flight[rec.task_id] = task;
      s.busy.insert(rec.client_id);
      ++s.running;
      bool was_interrupted = rec.interrupted;
      events.push_back({rec.stamp, rec.finish_time,
                        [&s, task, was_interrupted] { on_task_end(s, *task, was_interrupted); }});
    }
    if (fb.pump_scheduled) {
      s.pump_scheduled = true;
      s.pump_time = fb.pump_time;
      s.pump_stamp = fb.pump_stamp;
      events.push_back({fb.pump_stamp, fb.pump_time, [&s] {
                          s.pump_scheduled = false;
                          pump(s);
                        }});
    }
    std::sort(events.begin(), events.end(),
              [](const RestoredEvent& a, const RestoredEvent& b) { return a.stamp < b.stamp; });
    for (auto& e : events) s.leader->queue().schedule(e.when, std::move(e.fire));
  }

  pump(s);
  // Drain: completions may still fire after `done` flips; they are counted
  // as stale and never re-pump (pump() no-ops when done).
  s.leader->queue().run();

  s.result.rounds = s.version;
  s.result.virtual_duration_s =
      s.version > 0 ? s.last_aggregation_time : s.leader->queue().now();
  if (!in.model_free && in.test != nullptr) {
    s.eval_model->set_flat_parameters(s.params);
    s.result.final_metric =
        data::evaluate_examples(*s.eval_model, *in.test, in.domain, in.dense_dim);
    if (s.result.eval_curve.empty() || s.result.eval_curve.back().round != s.version)
      s.result.eval_curve.push_back(
          {s.result.virtual_duration_s, s.version, s.result.final_metric, 0.0});
  }
  s.result.final_parameters = std::move(s.params);
  s.result.events_executed = s.leader->queue().executed();
  s.result.metrics = s.leader->metrics();
  attribution_scope.finish(s.result);
  telemetry_scope.finish(s.result);
  return s.result;
}

}  // namespace flint::fl
