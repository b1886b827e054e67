// Scalar reference kernels — the numerics every other path must match (or,
// for the double reductions, approximate within 1 ULP of the derived float).
//
// This TU compiles with -fno-tree-vectorize -ffp-contract=off (see
// src/CMakeLists.txt): "scalar" means honestly scalar, so --kernels=scalar
// pins a machine-independent reference path, and no FMA contraction can
// change the one-rounding-per-op contract the SIMD paths replicate.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml::kernels {

namespace {

void s_add(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void s_sub(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void s_scale(float* y, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

void s_axpy(float* y, const float* x, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

void s_scale_add(float* y, float s, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] * s + x[i];
}

void s_sgd_step(float* value, const float* grad, float lr, float wd, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    value[i] -= lr * g;
  }
}

void s_sgd_momentum_step(float* value, const float* grad, float* vel, float lr,
                         float momentum, float wd, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    vel[i] = momentum * vel[i] + g;
    value[i] -= lr * vel[i];
  }
}

void s_server_momentum_step(float* params, float* vel, const float* delta, float beta,
                            float lr, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    vel[i] = beta * vel[i] + delta[i];
    params[i] += lr * vel[i];
  }
}

void s_weighted_accum(double* sum, const float* d, double w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) sum[i] += w * static_cast<double>(d[i]);
}

void s_mean_from_sums(float* out, const double* sum, double inv, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(sum[i] * inv);
}

float s_max_abs(const float* x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void s_relu_forward(float* out, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void s_relu_backward(float* d_in, const float* d_out, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d_in[i] = y[i] <= 0.0f ? 0.0f : d_out[i];
}

void s_matmul(const float* a, const float* b, float* out, std::size_t m, std::size_t k,
              std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      float av = a_row[kk];
      if (av == 0.0f) continue;
      const float* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
    }
  }
}

void s_transposed_matmul(const float* a, const float* b, float* out, std::size_t k,
                         std::size_t m, std::size_t n) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * m;
    const float* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      float av = a_row[i];
      if (av == 0.0f) continue;
      float* o_row = out + i * n;
      for (std::size_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
    }
  }
}

void s_matmul_transposed(const float* a, const float* b, float* out, std::size_t m,
                         std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a_row[kk]) * b_row[kk];
      out[i * n + j] = static_cast<float>(acc);
    }
  }
}

double s_sum_squares(const float* x, std::size_t n, double acc) {
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
  return acc;
}

std::size_t clamp_token(std::int32_t raw, std::size_t vocab) {
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(vocab) - 1));
}

void s_gather_mean_rows(const float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, float* out) {
  if (count == 0) return;
  for (std::size_t t = 0; t < count; ++t) {
    const float* row = table + clamp_token(tokens[t], vocab) * dim;
    for (std::size_t j = 0; j < dim; ++j) out[j] += row[j];
  }
  float inv = 1.0f / static_cast<float>(count);
  for (std::size_t j = 0; j < dim; ++j) out[j] *= inv;
}

void s_scatter_add_rows(float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, const float* grad, float s) {
  for (std::size_t t = 0; t < count; ++t) {
    float* row = table + clamp_token(tokens[t], vocab) * dim;
    for (std::size_t j = 0; j < dim; ++j) row[j] += s * grad[j];
  }
}

constexpr KernelTable kScalarTable = {
    s_add,
    s_sub,
    s_scale,
    s_axpy,
    s_scale_add,
    s_sgd_step,
    s_sgd_momentum_step,
    s_server_momentum_step,
    s_weighted_accum,
    s_mean_from_sums,
    s_max_abs,
    s_relu_forward,
    s_relu_backward,
    s_matmul,
    s_transposed_matmul,
    s_matmul_transposed,
    s_sum_squares,
    s_gather_mean_rows,
    s_scatter_add_rows,
};

}  // namespace

const KernelTable& scalar_table() { return kScalarTable; }

}  // namespace flint::ml::kernels
