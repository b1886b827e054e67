// FLINT quickstart: evaluate whether a small ads-style model is worth moving
// to cross-device federated learning — in about 80 lines.
//
//   1. Benchmark the candidate model across the device fleet.
//   2. Generate an availability trace from (synthetic) session logs under
//      participation criteria.
//   3. Build a federated proxy task and run simulated FedBuff training.
//   4. Compare against the centralized baseline and forecast resources.
//
// Build & run:  ./build/examples/quickstart
//
// Profiling: pass --trace-out trace.json to record a Chrome trace-event file
// (open in Perfetto / chrome://tracing; wall and virtual clocks are separate
// process tracks) plus a metrics JSONL dump (--metrics-out overrides its
// default path, quickstart_metrics.jsonl). With a multi-process transport
// (--transport unix|tcp), --trace-out names a *directory*: the leader and
// each spawned executor write their own trace into it, ready for
// tools/flint_trace_merge.py (DESIGN.md §15). --status-out streams live
// fleet status JSONL for tools/flint_top.py.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "flint/compress/quantize.h"
#include "flint/core/platform.h"
#include "flint/core/report.h"
#include "flint/core/run_artifact.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/fl/rpc_runtime.h"
#include "flint/ml/kernels/kernels.h"
#include "flint/net/bandwidth_model.h"
#include "flint/obs/telemetry.h"
#include "flint/store/checkpoint.h"

int main(int argc, char** argv) {
  using namespace flint;
  const auto start = std::chrono::steady_clock::now();

  std::string trace_out;
  std::string metrics_out;
  std::string status_out;
  std::string artifact_out = "quickstart_report/run_artifact.json";
  std::string checkpoint_dir = "quickstart_report/checkpoints";
  std::uint64_t checkpoint_every = 10;
  bool explicit_checkpoint_dir = false;
  bool resume = false;
  std::size_t threads = 1;
  std::string transport = "inprocess";
  std::size_t rpc_executors = 2;
  std::string executor_bin;
  std::string rpc_dir = ".";
  std::string kernels_spec;
  std::string compression = "none";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--status-out") == 0 && i + 1 < argc) {
      status_out = argv[++i];
    } else if (std::strcmp(argv[i], "--artifact-out") == 0 && i + 1 < argc) {
      artifact_out = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      checkpoint_dir = argv[++i];
      explicit_checkpoint_dir = true;
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 && i + 1 < argc) {
      checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (threads == 0) threads = 1;
    } else if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
      transport = argv[++i];
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      transport = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--rpc-executors") == 0 && i + 1 < argc) {
      rpc_executors = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--executor-bin") == 0 && i + 1 < argc) {
      executor_bin = argv[++i];
    } else if (std::strcmp(argv[i], "--rpc-dir") == 0 && i + 1 < argc) {
      rpc_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--kernels") == 0 && i + 1 < argc) {
      kernels_spec = argv[++i];
    } else if (std::strncmp(argv[i], "--kernels=", 10) == 0) {
      kernels_spec = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--compression") == 0 && i + 1 < argc) {
      compression = argv[++i];
    } else if (std::strncmp(argv[i], "--compression=", 14) == 0) {
      compression = argv[i] + 14;
    } else {
      std::cerr << "usage: quickstart [--trace-out trace.json] [--metrics-out metrics.jsonl]"
                   " [--status-out status.jsonl]"
                   " [--artifact-out artifact.json] [--checkpoint-dir dir]"
                   " [--checkpoint-every N] [--resume] [--threads N]"
                   " [--transport inprocess|loopback|unix|tcp] [--rpc-executors N]"
                   " [--executor-bin path] [--rpc-dir dir]"
                   " [--kernels auto|scalar|avx2|neon] [--compression none|int8|topk]\n";
      return 2;
    }
  }
  // Pin the kernel path before any training work; the RPC runtime forwards
  // the spec to spawned executors so the fleet shares one set of numerics.
  if (!kernels_spec.empty()) {
    try {
      ml::kernels::set_path(kernels_spec);
    } catch (const util::CheckError& e) {
      std::cerr << "quickstart: " << e.what() << "\n";
      return 2;
    }
  }
  compress::CompressionConfig compression_cfg;
  if (compression == "int8") {
    compression_cfg.kind = compress::CompressionKind::kInt8;
  } else if (compression == "topk") {
    compression_cfg.kind = compress::CompressionKind::kTopK;
  } else if (compression != "none") {
    std::cerr << "quickstart: unknown --compression '" << compression
              << "' (expected none|int8|topk)\n";
    return 2;
  }
  // A checkpoint lineage belongs to one (seed, config) run, and the multi-
  // trial sweep varies the seed per trial — so an explicit store, or a
  // resume from one, pins the study to a single trial (DESIGN.md §12).
  const int trials = (resume || explicit_checkpoint_dir) ? 1 : 3;
  const fl::TransportKind transport_kind = fl::parse_transport(transport);
  const bool multiproc = transport_kind == fl::TransportKind::kUnix ||
                         transport_kind == fl::TransportKind::kTcp;
  const bool telemetry_on =
      !trace_out.empty() || !metrics_out.empty() || !status_out.empty();
  if (telemetry_on && metrics_out.empty()) metrics_out = "quickstart_metrics.jsonl";

  // Multi-process tracing fans out per process: --trace-out names a run
  // directory; the leader writes leader.trace.json and each executor child
  // writes executor-<i>.trace.json beside it (DESIGN.md §15).
  std::string trace_dir;
  std::string leader_trace_out = trace_out;
  if (multiproc && !trace_out.empty()) {
    trace_dir = trace_out;
    std::filesystem::create_directories(trace_dir);
    leader_trace_out = trace_dir + "/leader.trace.json";
  }

  obs::TelemetryConfig telemetry_cfg;
  telemetry_cfg.metrics_enabled = telemetry_on;
  telemetry_cfg.tracing_enabled = !trace_out.empty();
  telemetry_cfg.trace_out = leader_trace_out;
  telemetry_cfg.metrics_out = metrics_out;
  telemetry_cfg.status_out = status_out;
  obs::Telemetry telemetry(telemetry_cfg);
  // Ambient for the whole example so the pre-training sections (feature
  // cache replay below) record too, not just the FL trials.
  std::optional<obs::ScopedTelemetry> ambient;
  if (telemetry_on) ambient.emplace(&telemetry);

  core::FlintPlatform platform(/*seed=*/42);
  if (telemetry_on) platform.set_telemetry(&telemetry);

  // --- 1. On-device benchmark of the candidate architecture. -------------
  auto benchmark = platform.benchmark_model('B', /*records=*/5000);
  std::cout << "Model B fleet benchmark: mean " << benchmark.mean_time_s << "s (+-"
            << benchmark.stdev_time_s << "s) per 5000 records, mean CPU "
            << benchmark.mean_cpu_pct << "%\n";

  // --- 2. Availability under participation criteria. ---------------------
  device::SessionGeneratorConfig sessions;
  sessions.clients = 500;
  sessions.days = 14;
  sessions.mean_session_s = 1800.0;
  auto log = platform.generate_session_log(sessions);

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_battery_pct = 80.0;
  auto trace = platform.build_availability(log, criteria);
  std::cout << "Availability: " << trace.client_count() << " of " << sessions.clients
            << " clients eligible across " << trace.window_count() << " windows\n";

  // --- 2b. Device-cloud feature plumbing (Figure 6): register the model's
  // features and replay a short access pattern so the report shows the
  // device-side cache behaviour the training rounds would see. -------------
  platform.features().register_feature({"member_embedding", feature::FeatureSource::kCloud,
                                        /*value_bytes=*/256, /*retention_days=*/30,
                                        /*cacheable=*/true});
  platform.features().register_feature({"session_context", feature::FeatureSource::kDevice,
                                        /*value_bytes=*/64});
  feature::DeviceFeatureRuntime features(platform.features(), /*cache_bytes=*/16 * 1024);
  for (int pass = 0; pass < 4; ++pass)
    for (std::uint64_t entity = 0; entity < 32; ++entity) {
      features.fetch("member_embedding", entity);
      features.fetch("session_context", entity);
    }
  const auto& cache = features.cache_stats();
  std::cout << "Feature cache: " << cache.hits << " hits / " << cache.misses << " misses\n";

  // --- 3. Federated proxy task + simulated async FL. ---------------------
  data::SyntheticTaskConfig task_cfg;
  task_cfg.domain = data::Domain::kAds;
  task_cfg.clients = 500;
  task_cfg.label_ratio = 0.28;
  auto task = data::make_synthetic_task(task_cfg, platform.rng());
  auto model = task.make_model(platform.rng());

  net::PufferLikeBandwidthModel bandwidth;
  fl::AsyncConfig fl_cfg;
  // Parallel client training: results are bit-identical at any --threads
  // value, only the wall time changes (DESIGN.md §11).
  fl_cfg.inputs.threads = threads;
  fl_cfg.inputs.dataset = &task.train;
  fl_cfg.inputs.dense_dim = task.batch_dense_dim();
  fl_cfg.inputs.model_template = model.get();
  fl_cfg.inputs.trace = &trace;
  fl_cfg.inputs.catalog = &platform.devices();
  fl_cfg.inputs.bandwidth = &bandwidth;
  fl_cfg.inputs.test = &task.test;
  fl_cfg.inputs.domain = task.config.domain;
  fl_cfg.inputs.local.loss = task.loss_kind();
  fl_cfg.inputs.duration = fl::TaskDurationModel::from_spec(ml::model_spec('B'), 1);
  fl_cfg.inputs.max_rounds = 60;
  fl_cfg.inputs.compression = compression_cfg;
  fl_cfg.buffer_size = 10;
  fl_cfg.max_concurrency = 30;

  // Periodic leader checkpoints (§3.4 fault tolerance) — also what gives the
  // profiling run its checkpoint-latency series. With --resume the run
  // restarts from the newest valid checkpoint in the store and finishes
  // bit-identically to an uninterrupted run (DESIGN.md §12).
  store::CheckpointStore checkpoints(checkpoint_dir);
  fl_cfg.inputs.leader.checkpoint_every_rounds = checkpoint_every;
  fl_cfg.inputs.leader.checkpoint_store = &checkpoints;
  if (resume) fl_cfg.inputs.resume_from = &checkpoints;

  // Multi-process (or loopback) execution: training leases go to registered
  // executors instead of in-process threads. Like --threads, this changes
  // wall time only — the artifact stays bit-identical to inprocess, so the
  // config fingerprint above is untouched (DESIGN.md §14).
  fl::RpcRuntimeConfig rpc_cfg;
  rpc_cfg.kind = transport_kind;
  rpc_cfg.executors = rpc_executors;
  rpc_cfg.executor_bin = executor_bin;
  rpc_cfg.socket_dir = rpc_dir;
  rpc_cfg.trace_dir = trace_dir;
  fl::RpcRuntime rpc_runtime(rpc_cfg, fl_cfg.inputs);
  fl_cfg.inputs.rpc_leader = rpc_runtime.leader();

  // --- 4. FL vs centralized, with a resource forecast. --------------------
  core::ForecastConfig forecast;
  forecast.update_bytes = model->update_bytes();
  auto result = platform.evaluate_case_study(task, fl_cfg, trials,
                                             /*centralized_epochs=*/5, forecast);

  if (resume && !result.fl_trials.trials.empty() &&
      result.fl_trials.trials[0].resume_count > 0) {
    std::cout << "\nResumed from checkpoint round "
              << result.fl_trials.trials[0].resumed_from_round << " (resume #"
              << result.fl_trials.trials[0].resume_count << ")\n";
  }
  std::cout << "\nCentralized AUPR: " << result.centralized_metric
            << "\nFL AUPR (median of " << trials << (trials == 1 ? " trial): " : " trials): ")
            << result.fl_metric << " (stdev "
            << result.fl_metric_stdev << ")"
            << "\nPerformance difference: " << result.performance_diff_pct << "%"
            << "\nProjected training time: " << result.projected_training_h << " h"
            << "\nForecast: " << result.forecast.summary() << "\n";

  std::cout << "\nDecision hint: the paper accepts up to 5% AUPR loss for ads when\n"
               "FL removes centralized tracking; this run "
            << (result.performance_diff_pct > -5.0 ? "PASSES" : "FAILS")
            << " that bar.\n";

  // Ship the run into the shared monitoring/review tooling (Figure 3).
  std::size_t best = 0;
  for (std::size_t i = 1; i < result.fl_trials.trials.size(); ++i)
    if (result.fl_trials.trials[i].final_metric > result.fl_trials.trials[best].final_metric)
      best = i;
  core::ReportInputs report;
  report.title = "quickstart ads pilot";
  report.run = &result.fl_trials.trials[best];
  report.forecast = &result.forecast;
  report.centralized_metric = result.centralized_metric;
  report.metric_name = task.metric_name();
  std::string path = core::write_report("quickstart_report", report);
  std::cout << "Full report written to " << path << " (+ CSV series)\n";

  // Machine-readable twin of the report: the schema-versioned run artifact
  // that tools/flint_compare.py diffs across runs.
  core::RunArtifactInputs artifact;
  artifact.run = report.run;
  artifact.name = "quickstart";
  artifact.metric_name = task.metric_name();
  artifact.forecast = &result.forecast;
  // Compression is part of the config fingerprint: it changes the numerics
  // (lossy update round trip), unlike --threads/--transport/--kernels-on-a-
  // pinned-path which only change wall time.
  artifact.config_text =
      "quickstart: ads proxy, 500 clients, fedbuff, seed 42, compression=" + compression;
  artifact.scalars = {{"centralized_metric", result.centralized_metric},
                      {"fl_metric_median", result.fl_metric},
                      {"performance_diff_pct", result.performance_diff_pct}};
  artifact.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  core::write_run_artifact(artifact_out, artifact);
  std::cout << "Run artifact written to " << artifact_out << "\n";

  if (telemetry_on) {
    telemetry.snapshot_now();
    telemetry.export_all();
    std::cout << "Telemetry: " << telemetry.metrics().series_count() << " metric series";
    if (!metrics_out.empty()) std::cout << " -> " << metrics_out;
    if (!trace_out.empty())
      std::cout << "; " << telemetry.tracer().event_count() << " trace spans -> " << trace_out;
    if (!status_out.empty()) std::cout << "; live status -> " << status_out;
    std::cout << "\n";
  }
  return 0;
}
