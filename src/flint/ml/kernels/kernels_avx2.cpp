// AVX2 kernels. Compiled with -mavx2 -ffp-contract=off (src/CMakeLists.txt)
// and only ever invoked after a cpuid check (kernels.cpp), so the binary
// stays runnable on pre-AVX2 x86.
//
// Exactness discipline (DESIGN.md §16): every elementwise kernel performs
// the same rounded multiply followed by the same rounded add as the scalar
// reference — _mm256_mul_ps + _mm256_add_ps, never an FMA — and vector
// tails fall back to the identical scalar expression. Only the double
// reductions (sum_squares, matmul_transposed's dots) use multiple
// accumulators and therefore differ from the scalar path, by design.
#include <cstdint>

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml::kernels {

namespace {

void a_add(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] += x[i];
}

void a_sub(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] -= x[i];
}

void a_scale(float* y, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  for (; i < n; ++i) y[i] *= s;
}

void a_axpy(float* y, const float* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_mul_ps(vs, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), t));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void a_scale_add(float* y, float s, const float* x, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_mul_ps(_mm256_loadu_ps(y + i), vs);
    _mm256_storeu_ps(y + i, _mm256_add_ps(t, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = y[i] * s + x[i];
}

void a_sgd_step(float* value, const float* grad, float lr, float wd, std::size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vwd = _mm256_set1_ps(wd);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(value + i);
    __m256 g = _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(vwd, v));
    _mm256_storeu_ps(value + i, _mm256_sub_ps(v, _mm256_mul_ps(vlr, g)));
  }
  for (; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    value[i] -= lr * g;
  }
}

void a_sgd_momentum_step(float* value, const float* grad, float* vel, float lr,
                         float momentum, float wd, std::size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vm = _mm256_set1_ps(momentum);
  const __m256 vwd = _mm256_set1_ps(wd);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(value + i);
    __m256 g = _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(vwd, v));
    __m256 vv = _mm256_add_ps(_mm256_mul_ps(vm, _mm256_loadu_ps(vel + i)), g);
    _mm256_storeu_ps(vel + i, vv);
    _mm256_storeu_ps(value + i, _mm256_sub_ps(v, _mm256_mul_ps(vlr, vv)));
  }
  for (; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    vel[i] = momentum * vel[i] + g;
    value[i] -= lr * vel[i];
  }
}

void a_server_momentum_step(float* params, float* vel, const float* delta, float beta,
                            float lr, std::size_t n) {
  const __m256 vbeta = _mm256_set1_ps(beta);
  const __m256 vlr = _mm256_set1_ps(lr);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_add_ps(_mm256_mul_ps(vbeta, _mm256_loadu_ps(vel + i)),
                             _mm256_loadu_ps(delta + i));
    _mm256_storeu_ps(vel + i, v);
    _mm256_storeu_ps(params + i,
                     _mm256_add_ps(_mm256_loadu_ps(params + i), _mm256_mul_ps(vlr, v)));
  }
  for (; i < n; ++i) {
    vel[i] = beta * vel[i] + delta[i];
    params[i] += lr * vel[i];
  }
}

void a_weighted_accum(double* sum, const float* d, double w, std::size_t n) {
  const __m256d vw = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vd = _mm256_cvtps_pd(_mm_loadu_ps(d + i));
    _mm256_storeu_pd(sum + i,
                     _mm256_add_pd(_mm256_loadu_pd(sum + i), _mm256_mul_pd(vw, vd)));
  }
  for (; i < n; ++i) sum[i] += w * static_cast<double>(d[i]);
}

void a_mean_from_sums(float* out, const double* sum, double inv, std::size_t n) {
  const __m256d vinv = _mm256_set1_pd(inv);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_loadu_pd(sum + i), vinv)));
  for (; i < n; ++i) out[i] = static_cast<float>(sum[i] * inv);
}

float a_max_abs(const float* x, std::size_t n) {
  // |x| via sign-bit clear; max is order-independent over finite floats, so
  // the lane-wise fold matches the scalar sweep exactly.
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float m = 0.0f;
  for (float lane : lanes) m = std::max(m, lane);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void a_relu_forward(float* out, const float* x, std::size_t n) {
  // Clear the lanes that compare < 0; the ordered compare is false for NaN
  // and -0.0f, which pass through as in the scalar select.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(out + i, _mm256_andnot_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), v));
  }
  for (; i < n; ++i) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void a_relu_backward(float* d_in, const float* d_out, const float* y, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dead = _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(d_in + i, _mm256_andnot_ps(dead, _mm256_loadu_ps(d_out + i)));
  }
  for (; i < n; ++i) d_in[i] = y[i] <= 0.0f ? 0.0f : d_out[i];
}

// The accumulating matmuls: out[i,:] += sum over kk of A(i,kk) * b[kk,:],
// with A(i,kk) = a[i*ais + kk*aks] — (ais, aks) = (k, 1) for matmul and
// (1, m) for transposed_matmul. Per output element the scalar reference adds
// the products in increasing kk and skips every kk with A(i,kk) == 0. Here an
// R-row x C-vector tile of `out` stays in registers for the whole k loop, and
// the skip is a blend that keeps the previous accumulator in exactly those
// lanes, so there is no data-dependent branch and no rounding difference.

/// All-ones in lanes [0, cols) (cols < 8): the valid lanes of a partial vector.
__m256i lane_mask(std::size_t cols) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One R x 8C tile of `out` (row stride n); with kMasked the last of the C
/// column vectors holds only the lanes in `mask`.
template <std::size_t R, std::size_t C, bool kMasked>
void mm_tile(const float* a, std::size_t ais, std::size_t aks, const float* b, float* out,
             std::size_t k, std::size_t n, __m256i mask) {
  auto load = [mask](const float* p, std::size_t c) {
    if constexpr (kMasked) {
      if (c + 1 == C) return _mm256_maskload_ps(p, mask);
    }
    return _mm256_loadu_ps(p);
  };
  const __m256 zero = _mm256_setzero_ps();
  __m256 acc[R][C];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (std::size_t c = 0; c < C; ++c) acc[r][c] = load(out + r * n + 8 * c, c);
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[C];
#pragma GCC unroll 2
    for (std::size_t c = 0; c < C; ++c) bv[c] = load(b + kk * n + 8 * c, c);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * ais + kk * aks);
      const __m256 skip = _mm256_cmp_ps(av, zero, _CMP_EQ_OQ);
#pragma GCC unroll 2
      for (std::size_t c = 0; c < C; ++c) {
        const __m256 sum = _mm256_add_ps(acc[r][c], _mm256_mul_ps(av, bv[c]));
        acc[r][c] = _mm256_blendv_ps(sum, acc[r][c], skip);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (std::size_t c = 0; c < C; ++c) {
      float* p = out + r * n + 8 * c;
      if (kMasked && c + 1 == C)
        _mm256_maskstore_ps(p, mask, acc[r][c]);
      else
        _mm256_storeu_ps(p, acc[r][c]);
    }
}

/// R rows of out (n >= 2), swept in 16-, 8- and masked column tiles.
template <std::size_t R>
void mm_rows(const float* a, std::size_t ais, std::size_t aks, const float* b, float* out,
             std::size_t k, std::size_t n) {
  const __m256i mask = lane_mask(n % 8);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) mm_tile<R, 2, false>(a, ais, aks, b + j, out + j, k, n, mask);
  for (; j + 8 <= n; j += 8) mm_tile<R, 1, false>(a, ais, aks, b + j, out + j, k, n, mask);
  if (j < n) mm_tile<R, 1, true>(a, ais, aks, b + j, out + j, k, n, mask);
}

/// n == 1: eight rows per vector. A column of A is contiguous when ais == 1
/// and gathered otherwise; rows past the last full vector run the scalar
/// reference loop.
void mm_column(const float* a, std::size_t ais, std::size_t aks, const float* b, float* out,
               std::size_t m, std::size_t k) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  // Gather offsets are 32-bit lane indices: 7 * ais must fit.
  if (ais <= 0x0fffffff) {
    const __m256i rows = _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                            _mm256_set1_epi32(static_cast<int>(ais)));
    for (; i + 8 <= m; i += 8) {
      __m256 acc = _mm256_loadu_ps(out + i);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* p = a + i * ais + kk * aks;
        const __m256 av = ais == 1 ? _mm256_loadu_ps(p) : _mm256_i32gather_ps(p, rows, 4);
        const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_broadcast_ss(b + kk)));
        acc = _mm256_blendv_ps(sum, acc, _mm256_cmp_ps(av, zero, _CMP_EQ_OQ));
      }
      _mm256_storeu_ps(out + i, acc);
    }
  }
  for (; i < m; ++i) {
    float o = out[i];
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * ais + kk * aks];
      if (av != 0.0f) o += av * b[kk];
    }
    out[i] = o;
  }
}

void mm_strided(const float* a, std::size_t ais, std::size_t aks, const float* b, float* out,
                std::size_t m, std::size_t k, std::size_t n) {
  if (n == 1) {
    mm_column(a, ais, aks, b, out, m, k);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) mm_rows<4>(a + i * ais, ais, aks, b, out + i * n, k, n);
  for (; i < m; ++i) mm_rows<1>(a + i * ais, ais, aks, b, out + i * n, k, n);
}

void a_matmul(const float* a, const float* b, float* out, std::size_t m, std::size_t k,
              std::size_t n) {
  mm_strided(a, k, 1, b, out, m, k, n);
}

void a_transposed_matmul(const float* a, const float* b, float* out, std::size_t k,
                         std::size_t m, std::size_t n) {
  mm_strided(a, 1, m, b, out, m, k, n);
}

double hsum_pd(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// One double dot product: acc0 over lanes 0-3 and acc1 over lanes 4-7 of
/// each 8-float block, ((l0 + l1) + l2) + l3 of acc0 + acc1, then the tail in
/// order.
double dot_pd(const float* x, const float* y, std::size_t k) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 vx = _mm256_loadu_ps(x + kk);
    const __m256 vy = _mm256_loadu_ps(y + kk);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                                             _mm256_cvtps_pd(_mm256_castps256_ps128(vy))));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                                             _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1))));
  }
  double acc = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; kk < k; ++kk) acc += static_cast<double>(x[kk]) * y[kk];
  return acc;
}

void a_matmul_transposed(const float* a, const float* b, float* out, std::size_t m,
                         std::size_t k, std::size_t n) {
  // Four dot products per pass share the converted row of a. Each keeps
  // dot_pd's order exactly: the same two accumulators, the horizontal sum as
  // a 4x4 transpose added column by column (the same association per lane),
  // and the tail added in order.
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b_rows[4] = {b + j * k, b + (j + 1) * k, b + (j + 2) * k, b + (j + 3) * k};
      __m256d lo[4], hi[4];
#pragma GCC unroll 4
      for (int q = 0; q < 4; ++q) lo[q] = hi[q] = _mm256_setzero_pd();
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 va = _mm256_loadu_ps(a_row + kk);
        const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
        const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
#pragma GCC unroll 4
        for (int q = 0; q < 4; ++q) {
          const __m256 vb = _mm256_loadu_ps(b_rows[q] + kk);
          const __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
          const __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
          lo[q] = _mm256_add_pd(lo[q], _mm256_mul_pd(a_lo, b_lo));
          hi[q] = _mm256_add_pd(hi[q], _mm256_mul_pd(a_hi, b_hi));
        }
      }
      const __m256d s0 = _mm256_add_pd(lo[0], hi[0]);
      const __m256d s1 = _mm256_add_pd(lo[1], hi[1]);
      const __m256d s2 = _mm256_add_pd(lo[2], hi[2]);
      const __m256d s3 = _mm256_add_pd(lo[3], hi[3]);
      const __m256d t0 = _mm256_unpacklo_pd(s0, s1);  // s0.l0 s1.l0 s0.l2 s1.l2
      const __m256d t1 = _mm256_unpackhi_pd(s0, s1);  // s0.l1 s1.l1 s0.l3 s1.l3
      const __m256d t2 = _mm256_unpacklo_pd(s2, s3);
      const __m256d t3 = _mm256_unpackhi_pd(s2, s3);
      const __m256d l0 = _mm256_permute2f128_pd(t0, t2, 0x20);  // lane 0 of s0..s3
      const __m256d l1 = _mm256_permute2f128_pd(t1, t3, 0x20);
      const __m256d l2 = _mm256_permute2f128_pd(t0, t2, 0x31);
      const __m256d l3 = _mm256_permute2f128_pd(t1, t3, 0x31);
      __m256d acc = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(l0, l1), l2), l3);
      for (; kk < k; ++kk) {
        const __m256d bk = _mm256_setr_pd(b_rows[0][kk], b_rows[1][kk], b_rows[2][kk],
                                          b_rows[3][kk]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a_row[kk]), bk));
      }
      _mm_storeu_ps(o_row + j, _mm256_cvtpd_ps(acc));
    }
    for (; j < n; ++j) o_row[j] = static_cast<float>(dot_pd(a_row, b + j * k, k));
  }
}

double a_sum_squares(const float* x, std::size_t n, double acc) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo, lo));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi, hi));
  }
  double partial = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) partial += static_cast<double>(x[i]) * x[i];
  return acc + partial;
}

std::size_t clamp_token(std::int32_t raw, std::size_t vocab) {
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(vocab) - 1));
}

void a_gather_mean_rows(const float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, float* out) {
  if (count == 0) return;
  for (std::size_t t = 0; t < count; ++t)
    a_add(out, table + clamp_token(tokens[t], vocab) * dim, dim);
  a_scale(out, 1.0f / static_cast<float>(count), dim);
}

void a_scatter_add_rows(float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, const float* grad, float s) {
  for (std::size_t t = 0; t < count; ++t)
    a_axpy(table + clamp_token(tokens[t], vocab) * dim, grad, s, dim);
}

constexpr KernelTable kAvx2Table = {
    a_add,
    a_sub,
    a_scale,
    a_axpy,
    a_scale_add,
    a_sgd_step,
    a_sgd_momentum_step,
    a_server_momentum_step,
    a_weighted_accum,
    a_mean_from_sums,
    a_max_abs,
    a_relu_forward,
    a_relu_backward,
    a_matmul,
    a_transposed_matmul,
    a_matmul_transposed,
    a_sum_squares,
    a_gather_mean_rows,
    a_scatter_add_rows,
};

}  // namespace

const KernelTable& avx2_table() { return kAvx2Table; }

}  // namespace flint::ml::kernels

#endif  // __AVX2__
