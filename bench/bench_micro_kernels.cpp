// Micro-kernel benchmarks (google-benchmark): throughput of the hot paths
// under FLINT's simulations — tensor products, embedding lookups, feature
// hashing, loss computation, local SGD steps, cache ops, and the event queue.
//
// Besides the google-benchmark section, main() runs a hand-timed sweep over
// the flint::ml::kernels table that emits per-kernel GB/s and GFLOP/s artifact
// leaves plus `speedup_vs_scalar` (active SIMD path vs. the honest-scalar
// reference), which is what the CI smoke-bench diff gates the ≥2× win on.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_helpers.h"
#include "flint/data/proxy_generator.h"
#include "flint/feature/feature_cache.h"
#include "flint/feature/feature_hashing.h"
#include "flint/fl/aggregator.h"
#include "flint/fl/trainer.h"
#include "flint/ml/kernels/kernels.h"
#include "flint/ml/loss.h"
#include "flint/ml/model.h"
#include "flint/sim/event_queue.h"
#include "flint/util/rng.h"

namespace {

using namespace flint;

void BM_TensorMatmul(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  ml::Tensor a(n, n), b(n, n);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ml::Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128);

void BM_EmbeddingBagForward(benchmark::State& state) {
  util::Rng rng(2);
  ml::EmbeddingBagLayer bag(10'000, 64);
  bag.init(rng);
  std::vector<std::vector<std::int32_t>> tokens(32);
  for (auto& t : tokens) {
    t.resize(16);
    for (auto& id : t) id = static_cast<std::int32_t>(rng.uniform_int(0, 9999));
  }
  for (auto _ : state) {
    const ml::Tensor& out = bag.forward(tokens);
    benchmark::DoNotOptimize(out.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * 16);
}
BENCHMARK(BM_EmbeddingBagForward);

void BM_FeatureHashing(benchmark::State& state) {
  feature::FeatureHasher hasher(4096);
  std::vector<std::string> tokens;
  for (int i = 0; i < 256; ++i) tokens.push_back("feature:token:" + std::to_string(i));
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& t : tokens) acc += hasher.bucket(t);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FeatureHashing);

void BM_BceLoss(benchmark::State& state) {
  util::Rng rng(3);
  ml::Tensor logits(512, 1);
  std::vector<float> labels(512);
  for (float& v : logits.flat()) v = static_cast<float>(rng.normal());
  for (float& v : labels) v = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  for (auto _ : state) {
    auto r = ml::bce_with_logits(logits, labels);
    benchmark::DoNotOptimize(r.loss);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_BceLoss);

void BM_LocalTrainerStep(benchmark::State& state) {
  util::Rng rng(4);
  ml::FeedForwardConfig mcfg;
  mcfg.dense_dim = 16;
  mcfg.hidden = {32, 16};
  auto model = std::make_unique<ml::FeedForwardModel>(mcfg);
  model->init(rng);
  std::vector<float> params = model->get_flat_parameters();
  fl::LocalTrainer trainer(std::move(model), 16);
  std::vector<ml::Example> data(64);
  for (auto& e : data) {
    e.dense.resize(16);
    for (float& v : e.dense) v = static_cast<float>(rng.normal());
    e.label = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  fl::LocalTrainConfig cfg;
  for (auto _ : state) {
    auto r = trainer.train(data, params, cfg);
    benchmark::DoNotOptimize(r.delta);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LocalTrainerStep);

void BM_FeatureCache(benchmark::State& state) {
  feature::FeatureCache cache(1 << 20);
  util::Rng rng(5);
  std::vector<float> value(16, 1.0f);
  for (int i = 0; i < 1000; ++i) cache.put("key" + std::to_string(i), value);
  for (auto _ : state) {
    auto v = cache.get("key" + std::to_string(rng.uniform_int(0, 1499)));  // ~2/3 hits
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureCache);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
      q.schedule(static_cast<double>((i * 7919) % 1000), [&fired] { ++fired; });
    q.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_WeightedAccumulate(benchmark::State& state) {
  // The aggregation hot loop: every client update funnels through
  // UpdateAccumulator::add and each server step through weighted_mean +
  // apply_server_update. Dim matches real model parameter counts.
  auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::vector<float>> deltas(16, std::vector<float>(dim));
  for (auto& d : deltas)
    for (float& v : d) v = static_cast<float>(rng.normal());
  std::vector<float> params(dim, 0.0f);
  fl::UpdateAccumulator acc(dim);
  for (auto _ : state) {
    acc.reset();
    for (std::size_t k = 0; k < deltas.size(); ++k)
      acc.add(deltas[k], 1.0 + static_cast<double>(k));
    std::vector<float> mean = acc.weighted_mean();
    fl::apply_server_update(params, mean, 0.1);
    benchmark::DoNotOptimize(params.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(deltas.size() * dim));
}
BENCHMARK(BM_WeightedAccumulate)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_QuantityProfile(benchmark::State& state) {
  util::Rng rng(6);
  data::QuantityProfileConfig cfg;
  cfg.population = 100'000;
  cfg.mean_records = 99;
  cfg.std_records = 667;
  cfg.max_records = 39'731;
  for (auto _ : state) {
    auto counts = data::sample_quantity_profile(cfg, rng);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_QuantityProfile);

// ---------------------------------------------------------------------------
// Hand-timed flint::ml::kernels sweep: per-kernel GB/s, GFLOP/s, and
// speedup_vs_scalar artifact leaves. Working sets are L1-resident (16 KB
// vectors, 64x64 matrices) so the numbers expose compute throughput — the
// quantity SIMD improves — rather than DRAM bandwidth.

/// Best-of-R time for `reps` calls of fn (minimum filters scheduler noise).
template <typename F>
double time_best_s(F&& fn, int reps, int rounds = 7) {
  double best = 1e30;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best / reps;
}

struct KernelCase {
  const char* name;
  double bytes;  ///< bytes touched per call (reads + writes)
  double flops;  ///< float ops per call
  int reps;      ///< calls per timing round
  void (*run)(const ml::kernels::KernelTable&);
};

constexpr std::size_t kVec = 4096;            // 16 KB of floats: L1-resident
constexpr std::size_t kMat = 64;              // 64x64 matmul operands
constexpr std::size_t kRows = 16, kDim = 64;  // gather/scatter shape
constexpr std::size_t kAct = 16 * 32;         // one [batch 16, 32] activation

// Shared scratch for the kernel cases. Static so the case table can use
// plain function pointers; (re)initialized by run_kernel_sweep.
struct Scratch {
  std::vector<float> x, y, vel, noise;
  std::vector<double> dsum;
  std::vector<float> a, b, out;
  std::vector<float> table, rows;
  std::vector<std::int32_t> tokens;
  std::vector<float> act;  ///< post-ReLU activations: about half exact zeros
};
Scratch& scratch() {
  static Scratch s;
  return s;
}

void reset_scratch() {
  util::Rng rng(11);
  Scratch& s = scratch();
  auto fill = [&rng](std::vector<float>& v, std::size_t n) {
    v.resize(n);
    for (float& f : v) f = static_cast<float>(rng.normal());
  };
  fill(s.x, kVec);
  fill(s.y, kVec);
  fill(s.vel, kVec);
  fill(s.noise, kVec);
  s.dsum.assign(kVec, 0.0);
  fill(s.a, kMat * kMat);
  fill(s.b, kMat * kMat);
  s.out.assign(kMat * kMat, 0.0f);
  fill(s.table, 1024 * kDim);
  fill(s.rows, kRows * kDim);
  s.tokens.resize(kRows);
  for (auto& t : s.tokens) t = static_cast<std::int32_t>(rng.uniform_int(0, 1023));
  fill(s.act, kMat * kMat);
  for (float& v : s.act) v = v < 0.0f ? 0.0f : v;
}

// Training shapes of the case-study models (DESIGN.md §16.5): out is
// [M, N] with inner dimension K, and the streamed operand holds post-ReLU
// activations, whose zeros the accumulating kernels skip.
template <std::size_t M, std::size_t K, std::size_t N>
void run_matmul(const ml::kernels::KernelTable& k) {
  auto& s = scratch();
  std::fill_n(s.out.begin(), M * N, 0.0f);
  k.matmul(s.act.data(), s.b.data(), s.out.data(), M, K, N);
}

template <std::size_t M, std::size_t K, std::size_t N>
void run_transposed_matmul(const ml::kernels::KernelTable& k) {
  auto& s = scratch();
  std::fill_n(s.out.begin(), M * N, 0.0f);
  k.transposed_matmul(s.act.data(), s.b.data(), s.out.data(), K, M, N);
}

template <std::size_t M, std::size_t K, std::size_t N>
void run_matmul_transposed(const ml::kernels::KernelTable& k) {
  auto& s = scratch();
  k.matmul_transposed(s.a.data(), s.b.data(), s.out.data(), M, K, N);
}

/// The three matmul kernels at one training shape.
#define FLINT_TRAINING_GEMMS(M, K, N)                                                   \
  {"matmul_" #M "x" #K "x" #N, 4.0 * (M * K + K * N + 2 * M * N), 2.0 * M * K * N, 20000, \
   run_matmul<M, K, N>},                                                                \
      {"transposed_matmul_" #M "x" #K "x" #N, 4.0 * (M * K + K * N + 2 * M * N),        \
       2.0 * M * K * N, 20000, run_transposed_matmul<M, K, N>},                         \
      {"matmul_transposed_" #M "x" #K "x" #N, 4.0 * (M * K + K * N + M * N),            \
       2.0 * M * K * N, 20000, run_matmul_transposed<M, K, N>}

const KernelCase kKernelCases[] = {
    {"add", 3.0 * 4 * kVec, 1.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.add(scratch().y.data(), scratch().x.data(), kVec);
     }},
    {"axpy", 3.0 * 4 * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.axpy(scratch().y.data(), scratch().x.data(), 0.25f, kVec);
     }},
    {"scale_add", 3.0 * 4 * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.scale_add(scratch().y.data(), 0.999f, scratch().noise.data(), kVec);
     }},
    {"sgd_step", 3.0 * 4 * kVec, 3.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.sgd_step(scratch().y.data(), scratch().x.data(), 1e-4f, 1e-5f, kVec);
     }},
    {"sgd_momentum_step", 5.0 * 4 * kVec, 5.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.sgd_momentum_step(scratch().y.data(), scratch().x.data(), scratch().vel.data(),
                           1e-4f, 0.9f, 1e-5f, kVec);
     }},
    {"server_momentum_step", 5.0 * 4 * kVec, 4.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.server_momentum_step(scratch().y.data(), scratch().vel.data(), scratch().x.data(),
                              0.9f, 0.1f, kVec);
     }},
    {"weighted_accum", (8.0 + 8.0 + 4.0) * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.weighted_accum(scratch().dsum.data(), scratch().x.data(), 1.5, kVec);
     }},
    {"mean_from_sums", (8.0 + 4.0) * kVec, 1.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.mean_from_sums(scratch().y.data(), scratch().dsum.data(), 0.125, kVec);
     }},
    {"max_abs", 4.0 * kVec, 1.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       benchmark::DoNotOptimize(k.max_abs(scratch().x.data(), kVec));
     }},
    {"sum_squares", 4.0 * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       benchmark::DoNotOptimize(k.sum_squares(scratch().x.data(), kVec, 0.0));
     }},
    {"matmul", 3.0 * 4 * kMat * kMat, 2.0 * kMat * kMat * kMat, 50,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       std::fill(s.out.begin(), s.out.end(), 0.0f);
       k.matmul(s.a.data(), s.b.data(), s.out.data(), kMat, kMat, kMat);
     }},
    {"transposed_matmul", 3.0 * 4 * kMat * kMat, 2.0 * kMat * kMat * kMat, 50,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       std::fill(s.out.begin(), s.out.end(), 0.0f);
       k.transposed_matmul(s.a.data(), s.b.data(), s.out.data(), kMat, kMat, kMat);
     }},
    {"matmul_transposed", 3.0 * 4 * kMat * kMat, 2.0 * kMat * kMat * kMat, 50,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       k.matmul_transposed(s.a.data(), s.b.data(), s.out.data(), kMat, kMat, kMat);
     }},
    {"gather_mean_rows", 2.0 * 4 * kRows * kDim, 1.0 * kRows * kDim, 2000,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       std::fill(s.rows.begin(), s.rows.end(), 0.0f);
       for (std::size_t r = 0; r < kRows; ++r)
         k.gather_mean_rows(s.table.data(), kDim, s.tokens.data(), kRows, 1024,
                            s.rows.data() + r * kDim);
     }},
    {"scatter_add_rows", 3.0 * 4 * kRows * kDim, 2.0 * kRows * kDim, 2000,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       for (std::size_t r = 0; r < kRows; ++r)
         k.scatter_add_rows(s.table.data(), kDim, s.tokens.data(), kRows, 1024,
                            s.rows.data() + r * kDim, 0.0625f);
     }},
    {"relu_forward", 2.0 * 4 * kAct, 1.0 * kAct, 20000,
     [](const ml::kernels::KernelTable& k) {
       k.relu_forward(scratch().y.data(), scratch().x.data(), kAct);
     }},
    {"relu_backward", 3.0 * 4 * kAct, 1.0 * kAct, 20000,
     [](const ml::kernels::KernelTable& k) {
       k.relu_backward(scratch().y.data(), scratch().noise.data(), scratch().x.data(), kAct);
     }},
    FLINT_TRAINING_GEMMS(16, 16, 32),
    FLINT_TRAINING_GEMMS(16, 32, 16),
    FLINT_TRAINING_GEMMS(16, 16, 1),
    FLINT_TRAINING_GEMMS(13, 16, 1),
    FLINT_TRAINING_GEMMS(16, 1, 16),
};

void run_kernel_sweep(flint::bench::BenchArtifact& artifact) {
  using ml::kernels::KernelPath;
  const KernelPath active = ml::kernels::active_path();
  const auto& active_table = ml::kernels::table_for(active);
  const auto& scalar_table = ml::kernels::table_for(KernelPath::kScalar);
  std::cout << "\nml::kernels sweep (active path: " << ml::kernels::path_name(active)
            << ", reference: scalar)\n";
  // Lets tools/check_kernel_speedup.py skip the >=2x gate on runs pinned to
  // --kernels=scalar, where every speedup is ~1.0 by construction.
  artifact.add_scalar("kernels.simd_active", active == KernelPath::kScalar ? 0.0 : 1.0);
  std::printf("  %-22s %10s %10s %12s\n", "kernel", "GB/s", "GFLOP/s", "vs scalar");
  for (const KernelCase& c : kKernelCases) {
    reset_scratch();
    c.run(scalar_table);  // warm both code and data
    double scalar_s = time_best_s([&] { c.run(scalar_table); }, c.reps);
    reset_scratch();
    c.run(active_table);
    double active_s = time_best_s([&] { c.run(active_table); }, c.reps);
    double gbps = c.bytes / active_s / 1e9;
    double gflops = c.flops / active_s / 1e9;
    double speedup = scalar_s / active_s;
    std::printf("  %-22s %10.2f %10.2f %11.2fx\n", c.name, gbps, gflops, speedup);
    std::string prefix = std::string("kernels.") + c.name;
    artifact.add_scalar(prefix + ".gbps", gbps);
    artifact.add_scalar(prefix + ".gflops", gflops);
    artifact.add_scalar(prefix + ".speedup_vs_scalar", speedup);
  }
}

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the binary also emits a run artifact: the
// --artifact-out and --kernels flags are consumed by BenchArtifact and hidden
// from google-benchmark's flag parser (which rejects flags it does not know).
int main(int argc, char** argv) {
  flint::bench::BenchArtifact artifact(argc, argv, "micro_kernels");
  artifact.set_config_text("micro_kernels: google-benchmark hot-path kernels");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && (std::strcmp(argv[i], "--artifact-out") == 0 ||
                         std::strcmp(argv[i], "--kernels") == 0)) {
      ++i;  // skip the flag and its value
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_kernel_sweep(artifact);
  return 0;
}
