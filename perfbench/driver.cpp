// perfbench_driver: runs ONE iteration of one benchmark workload (set-up,
// then the runner calls) and prints one JSON line with its timings, its
// simulated outputs and the results of its output checks. run.py calls it
// repeatedly and reports medians; see README.md for the workloads and the
// metric definitions.
//
//   perfbench_driver --workload casestudy --seed 3 [--trace 1] [--size tiny]
//                    [--corrupt 1] --work-dir DIR
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/mman.h>

#include "flint/data/proxy_generator.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "flint/fl/trainer.h"
#include "flint/net/bandwidth_model.h"
#include "flint/obs/telemetry.h"
#include "flint/store/checkpoint.h"
#include "flint/util/check.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace flint;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  bool traced = false;
  bool corrupt = false;     ///< self-test: damage the result before checking
  std::string work_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--size") o.tiny = value == "tiny";
    else if (flag == "--trace") o.traced = value == "1";
    else if (flag == "--corrupt") o.corrupt = value == "1";
    else if (flag == "--work-dir") o.work_dir = value;
    else FLINT_CHECK_MSG(false, "unknown flag " << flag);
  }
  return o;
}

/// SplitMix64: decorrelated per-purpose seeds from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a over the bytes of the simulated outputs.
class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) mix(p[i]);
  }
  void add(const std::vector<float>& values) {
    for (float v : values) add(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

double dir_mib(const fs::path& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0.0;
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

/// Host time between consecutive RunInputs::round_hook calls, kept per
/// runner call. A workload's round percentile is the mean over its runner
/// calls of that call's percentile: pooling runners whose rounds differ in
/// cost (ads vs messaging) would put the median in the gap between them.
class RoundClock {
 public:
  std::function<void(std::uint64_t)> hook() {
    runs_.emplace_back();
    has_last_ = false;
    return [this, run = runs_.size() - 1](std::uint64_t) {
      double t = cpu_s();
      if (has_last_) runs_[run].push_back((t - last_) * 1e3);
      last_ = t;
      has_last_ = true;
    };
  }

  /// Mean over runner calls of the nearest-rank q-quantile of their intervals.
  double percentile_ms(double q) const {
    double sum = 0.0;
    for (std::vector<double> sorted : runs_) {
      if (sorted.empty()) continue;
      std::sort(sorted.begin(), sorted.end());
      auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
      sum += sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
    }
    return runs_.empty() ? 0.0 : sum / static_cast<double>(runs_.size());
  }

  std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& run : runs_) n += run.size();
    return n;
  }

 private:
  std::vector<std::vector<double>> runs_;
  double last_ = 0.0;
  bool has_last_ = false;
};

/// Everything one iteration reports.
struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mib = 0.0;
  double probe_s = 0.0;  ///< HostProbe, timed right after the workload
  std::uint64_t updates = 0;
  RoundClock rounds;
  Fnv hash;
  double virtual_s = 0.0;
  std::map<std::string, double> model_metrics;  ///< per case, final FL metric
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::map<std::string, double> layers;       ///< traced run only
  std::map<std::string, double> span_self_s;  ///< traced run only: the driver's spans

  void check(const std::string& name, bool ok, const std::string& detail = "") {
    if (!ok) failed_checks.emplace_back(name, detail);
  }
};

/// Per-layer counters and the timers the driver keeps around public calls.
struct Layers {
  DeviceCounters device;
  MlCounters ml;
  BusyTime stream_setup, make_task, fedavg, fedbuff, centralized;
  double spill_mib = 0.0;
  double checkpoint_mib = 0.0;
  std::uint64_t checkpoints = 0;
  double ml_busy_in_fedbuff_s = 0.0;
  std::uint64_t examples = 0;
  std::uint64_t events = 0, tasks_started = 0, rounds = 0;
};

/// Output checks every run of every workload gets, then fold the run's
/// simulated outputs into the result hash.
void account_run(const std::string& label, fl::RunResult& r, Outcome& out, Layers& layers,
                 bool corrupt) {
  if (corrupt) {
    r.metrics.on_task_started();  // a task that never finished
    if (!r.final_parameters.empty()) r.final_metric = std::nan("");
  }
  const sim::SimMetrics& m = r.metrics;
  std::uint64_t finished =
      m.tasks_succeeded() + m.tasks_interrupted() + m.tasks_stale() + m.tasks_failed();
  out.check(label + ".accounting", m.tasks_started() == finished,
            "started " + std::to_string(m.tasks_started()) + " != finished " +
                std::to_string(finished));
  const obs::LedgerRollup& t = r.ledger.totals;
  bool ledger_ok = t.tasks_succeeded == m.tasks_succeeded() &&
                   t.tasks_interrupted == m.tasks_interrupted() &&
                   t.tasks_stale == m.tasks_stale() && t.tasks_failed == m.tasks_failed() &&
                   std::abs(t.compute_s - m.client_compute_s()) <=
                       1e-9 * std::max(1.0, m.client_compute_s());
  out.check(label + ".ledger", ledger_ok, "ledger totals do not reconcile with SimMetrics");
  out.check(label + ".rounds", r.rounds >= 1 && m.updates_aggregated() >= r.rounds,
            "no aggregation happened");

  out.updates += m.updates_aggregated();
  out.virtual_s += r.virtual_duration_s;
  layers.events += r.events_executed;
  layers.tasks_started += m.tasks_started();
  layers.rounds += r.rounds;

  out.hash.add(m.tasks_started());
  out.hash.add(m.tasks_succeeded());
  out.hash.add(m.tasks_interrupted());
  out.hash.add(m.tasks_stale());
  out.hash.add(m.tasks_failed());
  out.hash.add(m.updates_aggregated());
  out.hash.add(m.client_compute_s());
  out.hash.add(r.rounds);
  out.hash.add(r.events_executed);
  out.hash.add(r.virtual_duration_s);
  out.hash.add(r.final_metric);
  out.hash.add(r.final_parameters);
}

void check_model_metric(const std::string& label, double metric, double floor, Outcome& out) {
  out.model_metrics[label] = metric;
  out.check(label + ".model_metric", std::isfinite(metric) && metric > floor,
            "metric " + std::to_string(metric) + " not above label-ratio floor " +
                std::to_string(floor));
}

// --- Workload inputs ----------------------------------------------------------

/// Table 4 case-study inputs (bench_table4's ads and messaging rows).
struct CaseSpec {
  data::SyntheticTaskConfig task;
  std::size_t trace_clients = 0;
  double per_example_s = 0.0;
  std::uint64_t update_bytes = 0;
  std::uint64_t rounds = 0;
  std::size_t buffer = 0;
  std::size_t concurrency = 0;
  int local_epochs = 1;
  double client_lr = 0.0;
  double reparticipation_gap_s = 0.0;
  double server_lr = 1.0;
  double lr_decay = 0.85;
  std::uint64_t lr_decay_rounds = 40;
};

CaseSpec ads_case(bool tiny) {
  CaseSpec c;
  c.task.domain = data::Domain::kAds;
  c.task.clients = tiny ? 120 : 700;
  c.task.mean_records = 40;
  c.task.std_records = 120;
  c.task.max_records = 1500;
  c.task.label_ratio = 0.28;
  c.task.heterogeneity = 0.6;
  c.task.dense_dim = 16;
  c.task.test_examples = tiny ? 400 : 3000;
  c.trace_clients = tiny ? 150 : 800;
  c.per_example_s = 61.81 / 5000.0;
  c.update_bytes = 760'000;
  c.rounds = tiny ? 20 : 220;
  c.buffer = 10;
  c.concurrency = 30;
  c.client_lr = 0.12;
  c.reparticipation_gap_s = 3600.0;
  return c;
}

CaseSpec messaging_case(bool tiny) {
  CaseSpec c;
  c.task.domain = data::Domain::kMessaging;
  c.task.clients = tiny ? 150 : 300;
  c.task.mean_records = 50;
  c.task.std_records = 80;
  c.task.max_records = 1000;
  c.task.label_ratio = 0.05;
  c.task.heterogeneity = 0.35;
  c.task.vocab = 400;
  c.task.tokens_per_example = 10;
  c.task.test_examples = tiny ? 400 : 1500;
  c.trace_clients = tiny ? 150 : 300;
  c.per_example_s = 9.0 / 5000.0;
  c.update_bytes = 120'000;
  c.rounds = tiny ? 20 : 200;
  c.buffer = 20;
  c.concurrency = 80;
  c.local_epochs = 3;
  c.client_lr = 0.3;
  c.reparticipation_gap_s = 600.0;
  c.server_lr = 3.0;
  c.lr_decay = 0.9;
  c.lr_decay_rounds = 200;
  return c;
}

device::AvailabilityCriteria strict_criteria() {
  device::AvailabilityCriteria c;
  c.require_wifi = true;
  c.min_battery_pct = 80.0;
  c.require_foreground = true;
  c.min_os_release = 201909;
  return c;
}

/// A case study's built inputs. Members are referenced by `config`.
struct CaseInputs {
  device::DeviceCatalog catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  device::AvailabilityTrace trace;
  data::FederatedTask task;
  std::unique_ptr<ml::Model> model;
  fl::AsyncConfig config;
};

/// Set-up of one case: 14-day session trace, proxy data, model.
///
/// The case itself (its session trace and proxy dataset) is a fixed fixture,
/// and the seed is the trial seed: it drives the model initialisation and the
/// run, as Table 4's trials do. A seeded fixture would make the work volume
/// swing with the heavy-tailed per-client record counts and availability
/// patterns, which the benchmark would then report as timing noise.
std::unique_ptr<CaseInputs> build_case(const CaseSpec& spec, std::uint64_t seed, bool traced,
                                       Layers& layers) {
  constexpr std::uint64_t kFixtureSeed = 0;
  auto in = std::make_unique<CaseInputs>();
  std::uint64_t domain = static_cast<std::uint64_t>(spec.task.domain);
  {
    Span span("device.generate_sessions");
    device::SessionGeneratorConfig scfg;
    scfg.clients = spec.trace_clients;
    scfg.days = 14;
    scfg.mean_session_s = 2400.0;
    util::Rng trace_rng(derive_seed(kFixtureSeed, 10 + domain));
    auto log = device::generate_sessions(scfg, in->catalog, trace_rng);
    in->trace = device::build_availability(log, strict_criteria(), in->catalog);
  }
  {
    util::Rng task_rng(derive_seed(kFixtureSeed, 20 + domain));
    Span span("data.make_synthetic_task", &layers.make_task);
    in->task = data::make_synthetic_task(spec.task, task_rng);
  }
  layers.examples += in->task.train.example_count() + in->task.test.size();
  {
    Span span("ml.make_model");
    util::Rng init_rng(derive_seed(seed, 20 + domain));
    in->model = in->task.make_model(init_rng);
    if (traced) in->model = std::make_unique<TracedModel>(std::move(in->model), layers.ml);
  }

  fl::AsyncConfig& cfg = in->config;
  cfg.inputs.dataset = &in->task.train;
  cfg.inputs.dense_dim = in->task.batch_dense_dim();
  cfg.inputs.model_template = in->model.get();
  cfg.inputs.trace = &in->trace;
  cfg.inputs.catalog = &in->catalog;
  cfg.inputs.bandwidth = &in->bandwidth;
  cfg.inputs.test = &in->task.test;
  cfg.inputs.domain = spec.task.domain;
  cfg.inputs.local.loss = in->task.loss_kind();
  cfg.inputs.local.lr = spec.client_lr;
  cfg.inputs.local.clip_norm = 1.0;
  cfg.inputs.local.epochs = spec.local_epochs;
  cfg.inputs.client_lr =
      fl::LrSchedule::exponential_decay(spec.client_lr, spec.lr_decay, spec.lr_decay_rounds);
  cfg.inputs.server_lr = spec.server_lr;
  cfg.inputs.duration.base_time_per_example_s = spec.per_example_s;
  cfg.inputs.duration.update_bytes = spec.update_bytes;
  cfg.inputs.duration.local_epochs = spec.local_epochs;
  cfg.inputs.max_rounds = spec.rounds;
  cfg.inputs.eval_every_rounds = 10;
  cfg.inputs.reparticipation_gap_s = spec.reparticipation_gap_s;
  cfg.inputs.seed = derive_seed(seed, 30 + domain);
  cfg.buffer_size = spec.buffer;
  cfg.max_concurrency = spec.concurrency;
  cfg.max_staleness = 30;
  return in;
}

fl::RunResult timed_fedbuff(const fl::AsyncConfig& cfg, Outcome& out, Layers& layers) {
  double ml_before = layers.ml.busy_s();
  fl::AsyncConfig hooked = cfg;
  hooked.inputs.round_hook = out.rounds.hook();
  double start = cpu_s();
  Span span("fl.run_fedbuff", &layers.fedbuff);
  fl::RunResult r = fl::run_fedbuff(hooked);
  out.run_s += cpu_s() - start;
  layers.ml_busy_in_fedbuff_s += layers.ml.busy_s() - ml_before;
  return r;
}

// --- Workloads ----------------------------------------------------------------

/// Model-free FedBuff over a streamed, spilled 500,000-client session trace.
void fleet_stream(const Options& opt, Outcome& out, Layers& layers, obs::Telemetry* telemetry) {
  double setup_start = cpu_s();
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  device::SessionStreamConfig stream_cfg;
  stream_cfg.generator.clients = opt.tiny ? 40'000 : 500'000;
  stream_cfg.generator.days = 2;
  stream_cfg.generator.sessions_per_day = 1.5;
  stream_cfg.clients_per_chunk = opt.tiny ? 8192 : 16'384;
  fs::path spill = fs::path(opt.work_dir) / "spill";
  fs::create_directories(spill);
  stream_cfg.spill_dir = spill.string();
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_session_s = 60.0;

  util::Rng rng(derive_seed(opt.seed, 1));
  std::unique_ptr<device::SessionStream> sessions;
  {
    Span span("device.make_session_stream", &layers.stream_setup);
    sessions = device::make_session_stream(stream_cfg, catalog, rng);
  }
  layers.spill_mib = dir_mib(spill);
  if (opt.traced) sessions = std::make_unique<TracedSessionStream>(std::move(sessions), layers.device);
  device::SessionWindowStream windows(*sessions, criteria, catalog);
  TracedWindowStream traced_windows(windows, layers.device);

  fl::AsyncConfig cfg;
  cfg.inputs.model_free = true;
  cfg.inputs.example_count_fn = [](std::uint64_t c) { return std::size_t{50} + c % 100; };
  cfg.inputs.catalog = &catalog;
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.window_stream = opt.traced ? static_cast<device::WindowStream*>(&traced_windows)
                                        : static_cast<device::WindowStream*>(&windows);
  cfg.inputs.duration.base_time_per_example_s = 0.02;
  cfg.inputs.duration.update_bytes = 1'000'000;
  cfg.inputs.reparticipation_gap_s = 6.0 * 3600.0;
  cfg.inputs.max_rounds = opt.tiny ? 20 : 2400;
  cfg.inputs.seed = derive_seed(opt.seed, 2);
  cfg.inputs.telemetry = telemetry;
  cfg.buffer_size = 64;
  cfg.max_concurrency = 256;
  cfg.max_staleness = 100;
  out.setup_s = cpu_s() - setup_start;

  fl::RunResult r = timed_fedbuff(cfg, out, layers);
  account_run("fedbuff", r, out, layers, opt.corrupt);
}

/// Table 3 Task C, first as synchronous FedAvg, then as FedBuff.
void sync_async(const Options& opt, Outcome& out, Layers& layers, obs::Telemetry* telemetry) {
  double setup_start = cpu_s();
  std::size_t clients = opt.tiny ? 5'000 : 100'000;
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  util::Rng rng(derive_seed(opt.seed, 1));
  std::vector<std::uint32_t> counts;
  device::AvailabilityTrace trace;
  {
    Span span("data.sample_quantity_profile");
    counts = data::sample_quantity_profile(
        {.population = clients, .mean_records = 1.53, .std_records = 1.47, .max_records = 406},
        rng);
  }
  {
    // Long always-on windows, as in Table 3: scheduling effects only.
    Span span("device.always_on_trace");
    std::vector<device::AvailabilityWindow> windows;
    windows.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
      windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});
    trace = device::AvailabilityTrace(std::move(windows));
  }
  fl::RunInputs inputs;
  inputs.model_free = true;
  inputs.client_example_counts = &counts;
  inputs.trace = &trace;
  inputs.catalog = &catalog;
  inputs.bandwidth = &bandwidth;
  inputs.duration.base_time_per_example_s = 2.4;
  inputs.duration.local_epochs = 1;
  inputs.duration.jitter_sigma = 0.20;
  inputs.duration.update_bytes = 380'000;
  inputs.max_rounds = opt.tiny ? 300 : 6'000;
  inputs.reparticipation_gap_s = 1800.0;
  inputs.seed = derive_seed(opt.seed, 2);
  inputs.telemetry = telemetry;
  out.setup_s = cpu_s() - setup_start;

  fl::SyncConfig sync;
  sync.inputs = inputs;
  sync.inputs.round_hook = out.rounds.hook();
  sync.cohort_size = 20;
  sync.overcommit = 1.3;
  sync.round_deadline_s = 4.0 * 3600.0;
  fl::RunResult fedavg;
  {
    double start = cpu_s();
    Span span("fl.run_fedavg", &layers.fedavg);
    fedavg = fl::run_fedavg(sync);
    out.run_s += cpu_s() - start;
  }
  account_run("fedavg", fedavg, out, layers, opt.corrupt);

  fl::AsyncConfig async;
  async.inputs = inputs;
  async.buffer_size = 20;
  async.max_concurrency = 36;
  async.max_staleness = 50;
  fl::RunResult fedbuff = timed_fedbuff(async, out, layers);
  account_run("fedbuff", fedbuff, out, layers, opt.corrupt);
}

/// Table 4 ads and messaging: centralized baseline plus one FedBuff trial
/// each, with a leader checkpoint every 10 rounds. Serial (threads = 1): at 2
/// threads the run phase's timing swings far more than the benchmark's bounds
/// allow on a shared host (see README.md).
void casestudy(const Options& opt, Outcome& out, Layers& layers, obs::Telemetry* telemetry) {
  for (const CaseSpec& spec : {ads_case(opt.tiny), messaging_case(opt.tiny)}) {
    std::string label = data::domain_name(spec.task.domain);
    double setup_start = cpu_s();
    auto in = build_case(spec, opt.seed, opt.traced, layers);
    in->config.inputs.telemetry = telemetry;
    fs::path ckpt_dir = fs::path(opt.work_dir) / ("checkpoints-" + label);
    store::CheckpointStore checkpoints(ckpt_dir.string());
    in->config.inputs.leader.checkpoint_every_rounds = 10;
    in->config.inputs.leader.checkpoint_store = &checkpoints;
    out.setup_s += cpu_s() - setup_start;

    {
      util::Rng central_rng(derive_seed(opt.seed, 40));
      auto central = in->task.make_model(central_rng);
      if (opt.traced) central = std::make_unique<TracedModel>(std::move(central), layers.ml);
      util::Rng shuffle_rng(derive_seed(opt.seed, 41));
      fl::LocalTrainConfig central_cfg = in->config.inputs.local;
      double start = cpu_s();
      Span span("fl.train_centralized", &layers.centralized);
      std::vector<double> curve =
          fl::train_centralized(*central, in->task, central_cfg, opt.tiny ? 1 : 3, shuffle_rng);
      out.run_s += cpu_s() - start;
      check_model_metric(label + ".centralized", curve.back(), spec.task.label_ratio, out);
      out.hash.add(central->get_flat_parameters());
    }
    fl::RunResult r = timed_fedbuff(in->config, out, layers);
    account_run(label + ".fedbuff", r, out, layers, opt.corrupt);
    check_model_metric(label, r.final_metric, spec.task.label_ratio, out);
    std::size_t written = checkpoints.checkpoint_count();
    out.check(label + ".checkpoints", written == r.rounds / 10,
              std::to_string(written) + " checkpoints for " + std::to_string(r.rounds) +
                  " rounds");
    layers.checkpoints += written;
    layers.checkpoint_mib += dir_mib(ckpt_dir);
  }
}

// --- Traced-run metrics ---------------------------------------------------------

/// Self time of the program's own obs spans. Every workload trains serially,
/// so all of them run on the simulation thread and nest by interval
/// containment. Also fills `total_s`, the summed duration per name.
std::map<std::string, double> program_span_self_s(const obs::Tracer& tracer,
                                                  std::map<std::string, double>& total_s) {
  struct Interval {
    std::string name;
    double start, end, child = 0.0;
  };
  std::vector<Interval> spans;
  for (const obs::TraceEvent& e : tracer.events_snapshot()) {
    double start = e.wall_start_us * 1e-6, end = start + e.wall_dur_us * 1e-6;
    spans.push_back({e.name, start, end});
    total_s[e.name] += end - start;
  }
  std::sort(spans.begin(), spans.end(), [](const Interval& a, const Interval& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::vector<Interval*> open;
  for (Interval& iv : spans) {
    while (!open.empty() && open.back()->end <= iv.start) open.pop_back();
    if (!open.empty()) open.back()->child += iv.end - iv.start;
    open.push_back(&iv);
  }
  std::map<std::string, double> self;
  for (const Interval& iv : spans) self[iv.name] += (iv.end - iv.start) - iv.child;
  return self;
}

void collect_layers(const Layers& l, const Outcome& out, const obs::Tracer& tracer,
                    std::map<std::string, double>& m) {
  auto n = [](const Count& c) { return static_cast<double>(c.load()); };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m["device.stream_setup_s"] = l.stream_setup.seconds();
  m["device.spill_mib"] = l.spill_mib;
  m["device.sessions_pulled"] = n(l.device.sessions_pulled);
  m["device.windows_pulled"] = n(l.device.windows_pulled);
  m["device.window_next_s"] = l.device.window_next.seconds();
  m["device.window_yield"] = ratio(n(l.device.windows_pulled), n(l.device.sessions_pulled));
  m["data.make_task_s"] = l.make_task.seconds();
  m["data.examples"] = static_cast<double>(l.examples);
  m["sim.events"] = static_cast<double>(l.events);
  m["sim.tasks_started"] = static_cast<double>(l.tasks_started);
  m["sim.updates_per_task"] = ratio(static_cast<double>(out.updates), l.tasks_started);
  m["sim.virtual_h"] = out.virtual_s / 3600.0;
  m["fl.fedavg_s"] = l.fedavg.seconds();
  m["fl.fedbuff_s"] = l.fedbuff.seconds();
  m["fl.centralized_s"] = l.centralized.seconds();
  m["fl.rounds"] = static_cast<double>(l.rounds);
  m["fl.worker_busy_share"] =
      ratio(l.ml_busy_in_fedbuff_s, l.fedbuff.seconds());
  m["ml.forward_calls"] = n(l.ml.forward_calls);
  m["ml.backward_calls"] = n(l.ml.backward_calls);
  m["ml.eval_forward_calls"] = n(l.ml.forward_calls) - n(l.ml.backward_calls);
  m["ml.forward_s"] = l.ml.forward.seconds();
  m["ml.backward_s"] = l.ml.backward.seconds();
  m["ml.examples"] = n(l.ml.examples);
  m["ml.clones"] = n(l.ml.clones);
  m["store.checkpoints"] = static_cast<double>(l.checkpoints);
  m["store.checkpoint_mib"] = l.checkpoint_mib;

  std::map<std::string, double> total;
  std::map<std::string, double> self = program_span_self_s(tracer, total);
  m["store.checkpoint_s"] = total["leader.checkpoint"];
  for (const char* name :
       {"fedbuff.dispatch", "fedbuff.aggregate", "fedbuff.evaluate", "fl.local_sgd", "fedavg.round"})
    m[std::string("span.") + name + ".self_s"] = self[name];
}

// --- Output ---------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

/// A JSON number; non-finite values (a corrupted metric) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_outcome(const Outcome& out) {
  std::ostringstream os;
  os.precision(17);
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(out.hash.value()));
  os << "{\"setup_s\":" << out.setup_s << ",\"run_s\":" << out.run_s
     << ",\"probe_s\":" << out.probe_s
     << ",\"updates\":" << out.updates << ",\"round_ms_p50\":" << out.rounds.percentile_ms(0.50)
     << ",\"round_ms_p95\":" << out.rounds.percentile_ms(0.95)
     << ",\"round_samples\":" << out.rounds.samples()
     << ",\"peak_rss_mib\":" << out.peak_rss_mib << ",\"result_hash\":\"" << hash
     << "\",\"virtual_h\":" << out.virtual_s / 3600.0 << ",\"model_metric\":{";
  bool first = true;
  for (const auto& [name, value] : out.model_metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":" << json_number(value);
    first = false;
  }
  os << "},\"failed_checks\":[";
  first = true;
  for (const auto& [name, detail] : out.failed_checks) {
    os << (first ? "" : ",") << "{\"name\":\"" << json_escape(name) << "\",\"detail\":\""
       << json_escape(detail) << "\"}";
    first = false;
  }
  os << "]";
  for (const auto& [key, values] : {std::pair{"layers", &out.layers},
                                    std::pair{"span_self_s", &out.span_self_s}}) {
    os << ",\"" << key << "\":{";
    first = true;
    for (const auto& [name, value] : *values) {
      os << (first ? "" : ",") << "\"" << name << "\":" << json_number(value);
      first = false;
    }
    os << "}";
  }
  os << "}";
  std::cout << os.str() << std::endl;
}

/// A fixed piece of work that uses none of FLINT's code: sort 1 MiB of keys,
/// binary-search them, and walk a 16 MiB table at random. On a shared host
/// the same code runs 10-25% slower from one minute to the next as
/// neighbours contend for cores, caches and memory. Timing this probe right after
/// each iteration measures that factor, and run.py divides it out (README.md,
/// "Clocks and host-speed correction"). Its memory is mapped apart from the heap, after
/// peak RSS is read, so neither the program nor the probe changes the other.
class HostProbe {
 public:
  HostProbe() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    FLINT_CHECK_MSG(p != MAP_FAILED, "host probe: mmap failed");
    keys_ = static_cast<std::uint64_t*>(p);
    sorted_ = keys_ + kKeys;
    table_ = reinterpret_cast<std::uint32_t*>(sorted_ + kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) keys_[i] = derive_seed(i, 1);
    for (std::size_t i = 0; i < kTable; ++i)
      table_[i] = static_cast<std::uint32_t>(derive_seed(i, 2) & (kTable - 1));
  }
  ~HostProbe() { munmap(keys_, kBytes); }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// CPU seconds of one pass, after an untimed pass that brings the buffers
  /// into cache.
  double measure() {
    pass();
    double start = cpu_s();
    pass();
    return cpu_s() - start;
  }

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 17;
  static constexpr std::size_t kTable = std::size_t{1} << 22;
  static constexpr std::size_t kBytes =
      2 * kKeys * sizeof(std::uint64_t) + kTable * sizeof(std::uint32_t);

  void pass() {
    std::copy(keys_, keys_ + kKeys, sorted_);
    std::sort(sorted_, sorted_ + kKeys);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKeys; i += 8) {
      const std::uint64_t* found = std::lower_bound(sorted_, sorted_ + kKeys, keys_[i]);
      acc += static_cast<std::uint64_t>(found - sorted_);
    }
    std::uint32_t j = 0;
    for (std::uint32_t i = 0; i < 200'000; ++i) j = table_[(j + i) & (kTable - 1)];
    sink_ = acc + j;
  }

  std::uint64_t* keys_ = nullptr;
  std::uint64_t* sorted_ = nullptr;
  std::uint32_t* table_ = nullptr;
  volatile std::uint64_t sink_ = 0;
};

int run(const Options& opt) {
  static const std::map<std::string,
                        std::function<void(const Options&, Outcome&, Layers&, obs::Telemetry*)>>
      kWorkloads = {{"fleet_stream", fleet_stream},
                    {"sync_async", sync_async},
                    {"casestudy", casestudy}};
  auto it = kWorkloads.find(opt.workload);
  FLINT_CHECK_MSG(it != kWorkloads.end(), "unknown workload '" << opt.workload << "'");
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);

  // The traced run records the program's own obs spans (metrics stay off)
  // alongside the benchmark's span log.
  std::unique_ptr<obs::Telemetry> telemetry;
  std::optional<obs::ScopedTelemetry> scope;
  if (opt.traced) {
    obs::TelemetryConfig tc;
    tc.metrics_enabled = false;
    tc.tracing_enabled = true;
    tc.snapshot_every_virtual_s = 0.0;
    tc.max_trace_events = 4'000'000;
    telemetry = std::make_unique<obs::Telemetry>(tc);
    scope.emplace(telemetry.get());
    SpanLog::instance().enable(opt.seed, 4'000'000);
  }

  Outcome out;
  Layers layers;
  it->second(opt, out, layers, telemetry.get());

  if (opt.traced) {
    collect_layers(layers, out, telemetry->tracer(), out.layers);
    SpanLog& log = SpanLog::instance();
    out.span_self_s = log.self_time_by_name();
    out.check("trace.complete", log.dropped() == 0 && telemetry->tracer().dropped() == 0,
              "span buffer overflowed");
    out.check("trace.written",
              log.write_jsonl((fs::path(opt.work_dir) / "spans.jsonl").string()),
              "could not write the span log");
  }
  out.peak_rss_mib = peak_rss_mib();
  out.probe_s = HostProbe().measure();
  print_outcome(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
