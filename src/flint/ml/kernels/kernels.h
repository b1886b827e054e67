// Runtime-dispatched SIMD kernels for FLINT's ML hot paths (DESIGN.md §16).
//
// Every flat-array loop that dominates a training or aggregation profile —
// dense matmul, axpy, SGD updates, embedding gather/scatter, reductions, the
// fused DP clip+noise pass — lives here behind one function-pointer table.
// The table is resolved once per process: `auto` picks the widest ISA the
// host supports (AVX2 on x86, NEON on aarch64, scalar otherwise), and
// `--kernels={auto,scalar,avx2,neon}` / the FLINT_KERNELS env var pin a path
// explicitly so determinism tests can hold the numerics fixed.
//
// Determinism contract (why tests may pin a path):
//  * Elementwise kernels (add/sub/scale/axpy/scale_add, the SGD and server
//    momentum steps, gather/scatter, weighted_accum, mean_from_sums,
//    max_abs, the ReLU pair, matmul, transposed_matmul) are BIT-IDENTICAL
//    across paths: every implementation performs the same per-element
//    multiply-then-add sequence in the same order, with FMA contraction
//    disabled in each kernel TU (-ffp-contract=off), so each float op rounds
//    exactly once.
//  * Sequential double reductions (sum_squares, and the dot products inside
//    matmul_transposed) use multiple accumulators in the SIMD paths. Their
//    double values differ from the scalar path at the ~n·ε_double level;
//    any float derived from them agrees within 1 ULP. They are fully
//    deterministic *within* a path, which is the contract the repo's
//    bit-identity tests run under (kernels pinned, or simply never changed
//    mid-run — the path is process-global and resolved once).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "flint/util/rng.h"

namespace flint::ml::kernels {

/// One implementation path. kAvx2 exists only on x86 builds, kNeon only on
/// aarch64 builds; requesting an absent or unsupported path is a CheckError.
enum class KernelPath { kScalar, kAvx2, kNeon };

const char* path_name(KernelPath path);

/// The flat-array kernel table. All pointers are non-null in every table.
/// Size-zero calls are no-ops; `out` buffers of the matmul family must be
/// zero-initialized by the caller (Tensor's constructors already are).
struct KernelTable {
  // --- elementwise (bit-identical across paths) ---------------------------
  /// y[i] += x[i]
  void (*add)(float* y, const float* x, std::size_t n);
  /// y[i] -= x[i]
  void (*sub)(float* y, const float* x, std::size_t n);
  /// y[i] *= s
  void (*scale)(float* y, float s, std::size_t n);
  /// y[i] += s * x[i]
  void (*axpy)(float* y, const float* x, float s, std::size_t n);
  /// y[i] = y[i] * s + x[i]  (the fused clip+noise inner pass)
  void (*scale_add)(float* y, float s, const float* x, std::size_t n);
  /// value[i] -= lr * (grad[i] + wd * value[i])
  void (*sgd_step)(float* value, const float* grad, float lr, float wd, std::size_t n);
  /// g = grad[i] + wd*value[i]; vel[i] = momentum*vel[i] + g; value[i] -= lr*vel[i]
  void (*sgd_momentum_step)(float* value, const float* grad, float* vel, float lr,
                            float momentum, float wd, std::size_t n);
  /// vel[i] = beta*vel[i] + delta[i]; params[i] += lr*vel[i]  (FedAvgM)
  void (*server_momentum_step)(float* params, float* vel, const float* delta, float beta,
                               float lr, std::size_t n);
  /// sum[i] += w * double(d[i])  (fixed-order reduction input)
  void (*weighted_accum)(double* sum, const float* d, double w, std::size_t n);
  /// out[i] = float(sum[i] * inv)
  void (*mean_from_sums)(float* out, const double* sum, double inv, std::size_t n);
  /// max_i |x[i]| (0 for n == 0); order-independent, exact across paths.
  float (*max_abs)(const float* x, std::size_t n);
  /// out[i] = x[i] < 0 ? +0.0f : x[i]  (-0.0f and NaN pass through unchanged)
  void (*relu_forward)(float* out, const float* x, std::size_t n);
  /// d_in[i] = y[i] <= 0 ? +0.0f : d_out[i], where y is the forward input or
  /// output (the two agree on y <= 0). d_in may alias d_out.
  void (*relu_backward)(float* d_in, const float* d_out, const float* y, std::size_t n);

  // --- matmul family ------------------------------------------------------
  /// out[m,n] += a[m,k] * b[k,n], ikj order; rank-1 updates with a == 0 are
  /// skipped, which leaves `out` untouched there even when b holds an inf or
  /// NaN (and keeps a -0.0f in `out`, which adding 0.0f would flip).
  /// Bit-identical across paths: per output element the k-accumulation order
  /// is unchanged and every step is one rounded mul + one rounded add.
  void (*matmul)(const float* a, const float* b, float* out, std::size_t m, std::size_t k,
                 std::size_t n);
  /// out[m,n] += a^T * b with a[k,m], b[k,n] (k-outer rank-1 updates, a == 0
  /// skipped). Bit-identical across paths, same argument as matmul.
  void (*transposed_matmul)(const float* a, const float* b, float* out, std::size_t k,
                            std::size_t m, std::size_t n);
  /// out[m,n] = a[m,k] * b^T with b[n,k]: double-accumulated dot products.
  /// Per-path deterministic; float outputs agree within 1 ULP across paths.
  void (*matmul_transposed)(const float* a, const float* b, float* out, std::size_t m,
                            std::size_t k, std::size_t n);

  // --- reductions ---------------------------------------------------------
  /// acc + sum_i double(x[i])^2. Sequential in the scalar path (chaining
  /// calls reproduces one long accumulation exactly); multi-accumulator in
  /// SIMD paths. Per-path deterministic.
  double (*sum_squares)(const float* x, std::size_t n, double acc);

  // --- embedding bag gather/scatter (bit-identical across paths) ----------
  /// out[j] = (1/count) * sum over tokens of table[clamp(token),j].
  /// `out` must be zeroed; count == 0 leaves it untouched. Tokens clamp to
  /// [0, vocab).
  void (*gather_mean_rows)(const float* table, std::size_t dim, const std::int32_t* tokens,
                           std::size_t count, std::size_t vocab, float* out);
  /// table[clamp(token),j] += s * grad[j] for each token, in token order.
  void (*scatter_add_rows)(float* table, std::size_t dim, const std::int32_t* tokens,
                           std::size_t count, std::size_t vocab, const float* grad, float s);
};

/// The process-wide active table. Resolved once on first use: an explicit
/// set_path() wins, else the FLINT_KERNELS env var, else auto-detection.
/// Reads are lock-free; call set_path() before spawning worker threads.
const KernelTable& active();
KernelPath active_path();

/// True when `path` has an implementation compiled in AND the host CPU can
/// run it (cpuid check for AVX2).
bool path_supported(KernelPath path);

/// Table for an explicit path — the kernel-equivalence tests and the
/// micro-kernel bench compare paths side by side. CheckError if unsupported.
const KernelTable& table_for(KernelPath path);

/// Parse and install "auto" | "scalar" | "avx2" | "neon" (the --kernels
/// flag). CheckError on an unknown spec or an unsupported path.
void set_path(const std::string& spec);

/// The spec that produced the active path ("auto" unless overridden).
/// Leaders forward this verbatim to spawned executors so a pinned path pins
/// the whole fleet (DESIGN.md §16).
const std::string& requested_spec();

/// Fused DP clip + Gaussian noise (privacy/dp.cpp): one sum_squares pass,
/// then a single v = v*scale + noise sweep over a pre-drawn noise buffer.
/// Draw order and per-element rounding match the classic two-pass
/// clip-then-noise exactly (mul rounds once, add rounds once), so the fusion
/// is bit-invisible within a kernel path. Returns the pre-clip L2 norm.
double clip_noise(float* v, std::size_t n, double clip_norm, double stddev, util::Rng& rng);

}  // namespace flint::ml::kernels
