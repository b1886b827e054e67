// NEON kernels (aarch64). Same exactness discipline as the AVX2 TU:
// vmulq_f32 followed by vaddq_f32 — never vfmaq/vmlaq, which contract to a
// fused multiply-add on aarch64 and would break cross-path bit-identity —
// and scalar tails that repeat the reference expression verbatim. The
// double-precision reductions use float64x2 accumulators and are per-path
// deterministic only, like their AVX2 counterparts.
#include <cstdint>

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml::kernels {

namespace {

void n_add(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] += x[i];
}

void n_sub(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, vsubq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] -= x[i];
}

void n_scale(float* y, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), vs));
  for (; i < n; ++i) y[i] *= s;
}

void n_axpy(float* y, const float* x, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t t = vmulq_f32(vs, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), t));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void n_scale_add(float* y, float s, const float* x, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t t = vmulq_f32(vld1q_f32(y + i), vs);
    vst1q_f32(y + i, vaddq_f32(t, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] = y[i] * s + x[i];
}

void n_sgd_step(float* value, const float* grad, float lr, float wd, std::size_t n) {
  const float32x4_t vlr = vdupq_n_f32(lr);
  const float32x4_t vwd = vdupq_n_f32(wd);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(value + i);
    float32x4_t g = vaddq_f32(vld1q_f32(grad + i), vmulq_f32(vwd, v));
    vst1q_f32(value + i, vsubq_f32(v, vmulq_f32(vlr, g)));
  }
  for (; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    value[i] -= lr * g;
  }
}

void n_sgd_momentum_step(float* value, const float* grad, float* vel, float lr,
                         float momentum, float wd, std::size_t n) {
  const float32x4_t vlr = vdupq_n_f32(lr);
  const float32x4_t vm = vdupq_n_f32(momentum);
  const float32x4_t vwd = vdupq_n_f32(wd);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(value + i);
    float32x4_t g = vaddq_f32(vld1q_f32(grad + i), vmulq_f32(vwd, v));
    float32x4_t vv = vaddq_f32(vmulq_f32(vm, vld1q_f32(vel + i)), g);
    vst1q_f32(vel + i, vv);
    vst1q_f32(value + i, vsubq_f32(v, vmulq_f32(vlr, vv)));
  }
  for (; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    vel[i] = momentum * vel[i] + g;
    value[i] -= lr * vel[i];
  }
}

void n_server_momentum_step(float* params, float* vel, const float* delta, float beta,
                            float lr, std::size_t n) {
  const float32x4_t vbeta = vdupq_n_f32(beta);
  const float32x4_t vlr = vdupq_n_f32(lr);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vaddq_f32(vmulq_f32(vbeta, vld1q_f32(vel + i)), vld1q_f32(delta + i));
    vst1q_f32(vel + i, v);
    vst1q_f32(params + i, vaddq_f32(vld1q_f32(params + i), vmulq_f32(vlr, v)));
  }
  for (; i < n; ++i) {
    vel[i] = beta * vel[i] + delta[i];
    params[i] += lr * vel[i];
  }
}

void n_weighted_accum(double* sum, const float* d, double w, std::size_t n) {
  const float64x2_t vw = vdupq_n_f64(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t vf = vld1q_f32(d + i);
    float64x2_t lo = vcvt_f64_f32(vget_low_f32(vf));
    float64x2_t hi = vcvt_f64_f32(vget_high_f32(vf));
    vst1q_f64(sum + i, vaddq_f64(vld1q_f64(sum + i), vmulq_f64(vw, lo)));
    vst1q_f64(sum + i + 2, vaddq_f64(vld1q_f64(sum + i + 2), vmulq_f64(vw, hi)));
  }
  for (; i < n; ++i) sum[i] += w * static_cast<double>(d[i]);
}

void n_mean_from_sums(float* out, const double* sum, double inv, std::size_t n) {
  const float64x2_t vinv = vdupq_n_f64(inv);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x2_t lo = vcvt_f32_f64(vmulq_f64(vld1q_f64(sum + i), vinv));
    float32x2_t hi = vcvt_f32_f64(vmulq_f64(vld1q_f64(sum + i + 2), vinv));
    vst1q_f32(out + i, vcombine_f32(lo, hi));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(sum[i] * inv);
}

float n_max_abs(const float* x, std::size_t n) {
  float32x4_t vmax = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) vmax = vmaxq_f32(vmax, vabsq_f32(vld1q_f32(x + i)));
  float m = vmaxvq_f32(vmax);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void n_relu_forward(float* out, const float* x, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(x + i);
    uint32x4_t neg = vcltq_f32(v, zero);
    vst1q_f32(out + i, vreinterpretq_f32_u32(vbicq_u32(vreinterpretq_u32_f32(v), neg)));
  }
  for (; i < n; ++i) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void n_relu_backward(float* d_in, const float* d_out, const float* y, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32x4_t dead = vcleq_f32(vld1q_f32(y + i), zero);
    uint32x4_t g = vreinterpretq_u32_f32(vld1q_f32(d_out + i));
    vst1q_f32(d_in + i, vreinterpretq_f32_u32(vbicq_u32(g, dead)));
  }
  for (; i < n; ++i) d_in[i] = y[i] <= 0.0f ? 0.0f : d_out[i];
}

void n_matmul(const float* a, const float* b, float* out, std::size_t m, std::size_t k,
              std::size_t n) {
  // Same register-blocked ikj scheme as the AVX2 path (see kernels_avx2.cpp
  // for the exactness argument); 4-wide vectors, k blocked by 2.
  constexpr std::size_t kTile = 512;
  for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
    const std::size_t k1 = std::min(k, k0 + kTile);
    for (std::size_t i = 0; i < m; ++i) {
      const float* a_row = a + i * k;
      float* o_row = out + i * n;
      std::size_t kk = k0;
      for (; kk + 2 <= k1; kk += 2) {
        const float a0 = a_row[kk];
        const float a1 = a_row[kk + 1];
        const float* b0 = b + kk * n;
        const float* b1 = b0 + n;
        if (a0 != 0.0f && a1 != 0.0f) {
          const float32x4_t va0 = vdupq_n_f32(a0);
          const float32x4_t va1 = vdupq_n_f32(a1);
          std::size_t j = 0;
          for (; j + 4 <= n; j += 4) {
            float32x4_t o = vld1q_f32(o_row + j);
            o = vaddq_f32(o, vmulq_f32(va0, vld1q_f32(b0 + j)));
            o = vaddq_f32(o, vmulq_f32(va1, vld1q_f32(b1 + j)));
            vst1q_f32(o_row + j, o);
          }
          for (; j < n; ++j) {
            float o = o_row[j] + a0 * b0[j];
            o_row[j] = o + a1 * b1[j];
          }
        } else if (a0 != 0.0f) {
          n_axpy(o_row, b0, a0, n);
        } else if (a1 != 0.0f) {
          n_axpy(o_row, b1, a1, n);
        }
      }
      if (kk < k1) {
        const float av = a_row[kk];
        if (av != 0.0f) n_axpy(o_row, b + kk * n, av, n);
      }
    }
  }
}

void n_transposed_matmul(const float* a, const float* b, float* out, std::size_t k,
                         std::size_t m, std::size_t n) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * m;
    const float* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      if (av == 0.0f) continue;
      n_axpy(out + i * n, b_row, av, n);
    }
  }
}

double hsum_f64(float64x2_t v) { return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1); }

void n_matmul_transposed(const float* a, const float* b, float* out, std::size_t m,
                         std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      std::size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        float32x4_t va = vld1q_f32(a_row + kk);
        float32x4_t vb = vld1q_f32(b_row + kk);
        float64x2_t alo = vcvt_f64_f32(vget_low_f32(va));
        float64x2_t ahi = vcvt_f64_f32(vget_high_f32(va));
        float64x2_t blo = vcvt_f64_f32(vget_low_f32(vb));
        float64x2_t bhi = vcvt_f64_f32(vget_high_f32(vb));
        acc0 = vaddq_f64(acc0, vmulq_f64(alo, blo));
        acc1 = vaddq_f64(acc1, vmulq_f64(ahi, bhi));
      }
      double acc = hsum_f64(vaddq_f64(acc0, acc1));
      for (; kk < k; ++kk) acc += static_cast<double>(a_row[kk]) * b_row[kk];
      out[i * n + j] = static_cast<float>(acc);
    }
  }
}

double n_sum_squares(const float* x, std::size_t n, double acc) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(x + i);
    float64x2_t lo = vcvt_f64_f32(vget_low_f32(v));
    float64x2_t hi = vcvt_f64_f32(vget_high_f32(v));
    acc0 = vaddq_f64(acc0, vmulq_f64(lo, lo));
    acc1 = vaddq_f64(acc1, vmulq_f64(hi, hi));
  }
  double partial = hsum_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) partial += static_cast<double>(x[i]) * x[i];
  return acc + partial;
}

std::size_t clamp_token(std::int32_t raw, std::size_t vocab) {
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(vocab) - 1));
}

void n_gather_mean_rows(const float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, float* out) {
  if (count == 0) return;
  for (std::size_t t = 0; t < count; ++t)
    n_add(out, table + clamp_token(tokens[t], vocab) * dim, dim);
  n_scale(out, 1.0f / static_cast<float>(count), dim);
}

void n_scatter_add_rows(float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, const float* grad, float s) {
  for (std::size_t t = 0; t < count; ++t)
    n_axpy(table + clamp_token(tokens[t], vocab) * dim, grad, s, dim);
}

constexpr KernelTable kNeonTable = {
    n_add,
    n_sub,
    n_scale,
    n_axpy,
    n_scale_add,
    n_sgd_step,
    n_sgd_momentum_step,
    n_server_momentum_step,
    n_weighted_accum,
    n_mean_from_sums,
    n_max_abs,
    n_relu_forward,
    n_relu_backward,
    n_matmul,
    n_transposed_matmul,
    n_matmul_transposed,
    n_sum_squares,
    n_gather_mean_rows,
    n_scatter_add_rows,
};

}  // namespace

const KernelTable& neon_table() { return kNeonTable; }

}  // namespace flint::ml::kernels

#endif  // __aarch64__ && __ARM_NEON
