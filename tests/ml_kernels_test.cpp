// Kernel-equivalence suite for flint::ml::kernels (DESIGN.md §16): every
// SIMD path compiled into this binary must agree with the scalar reference —
// bit-for-bit for the elementwise/gather/matmul kernels, within 1 ULP for
// the double-reduction kernels — plus dispatch behaviour and the fused
// clip+noise kernel against an inline two-pass reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/check.h"
#include "flint/util/rng.h"

namespace flint {
namespace {

namespace k = ml::kernels;

std::vector<k::KernelPath> simd_paths() {
  std::vector<k::KernelPath> paths;
  for (k::KernelPath p : {k::KernelPath::kAvx2, k::KernelPath::kNeon})
    if (k::path_supported(p)) paths.push_back(p);
  return paths;
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng, double stddev = 1.0) {
  std::vector<float> v(n);
  for (float& f : v) f = static_cast<float>(rng.normal(0.0, stddev));
  return v;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  // memcmp's pointers must be non-null even for zero bytes (UBSan checks).
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool within_one_ulp(float a, float b) {
  return a == b || b == std::nextafter(a, b);
}

// Sizes straddle the vector width: remainders of every length get exercised.
constexpr std::size_t kSizes[] = {0, 1, 3, 7, 8, 15, 64, 257, 1000};

TEST(KernelEquivalence, ElementwiseBitIdenticalAcrossPaths) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (std::size_t n : kSizes) {
      util::Rng rng(1000 + n);
      const std::vector<float> x = random_floats(n, rng);
      const std::vector<float> y0 = random_floats(n, rng);
      const std::vector<float> v0 = random_floats(n, rng, 0.1);

      auto check = [&](const char* name, auto&& run) {
        std::vector<float> a = y0, b = y0;
        std::vector<float> va = v0, vb = v0;
        run(scalar, a, va);
        run(simd, b, vb);
        EXPECT_TRUE(bit_equal(a, b))
            << name << " differs from scalar on " << k::path_name(path) << " at n=" << n;
        EXPECT_TRUE(bit_equal(va, vb))
            << name << " aux state differs on " << k::path_name(path) << " at n=" << n;
      };

      check("add", [&](const k::KernelTable& t, auto& y, auto&) {
        t.add(y.data(), x.data(), n);
      });
      check("sub", [&](const k::KernelTable& t, auto& y, auto&) {
        t.sub(y.data(), x.data(), n);
      });
      check("scale", [&](const k::KernelTable& t, auto& y, auto&) {
        t.scale(y.data(), 0.637f, n);
      });
      check("axpy", [&](const k::KernelTable& t, auto& y, auto&) {
        t.axpy(y.data(), x.data(), -1.75f, n);
      });
      check("scale_add", [&](const k::KernelTable& t, auto& y, auto&) {
        t.scale_add(y.data(), 0.923f, x.data(), n);
      });
      check("sgd_step", [&](const k::KernelTable& t, auto& y, auto&) {
        t.sgd_step(y.data(), x.data(), 0.01f, 1e-4f, n);
      });
      check("sgd_momentum_step", [&](const k::KernelTable& t, auto& y, auto& v) {
        t.sgd_momentum_step(y.data(), x.data(), v.data(), 0.01f, 0.9f, 1e-4f, n);
      });
      check("server_momentum_step", [&](const k::KernelTable& t, auto& y, auto& v) {
        t.server_momentum_step(y.data(), v.data(), x.data(), 0.9f, 0.5f, n);
      });
    }
  }
}

TEST(KernelEquivalence, AccumAndReduceKernels) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (std::size_t n : kSizes) {
      util::Rng rng(2000 + n);
      const std::vector<float> x = random_floats(n, rng);
      const std::vector<double> sum0 = [&] {
        std::vector<double> s(n);
        for (double& d : s) d = rng.normal(0.0, 10.0);
        return s;
      }();

      // weighted_accum: per-element double FMA-free update, bit-identical.
      std::vector<double> sa = sum0, sb = sum0;
      scalar.weighted_accum(sa.data(), x.data(), 2.5, n);
      simd.weighted_accum(sb.data(), x.data(), 2.5, n);
      EXPECT_TRUE(n == 0 || std::memcmp(sa.data(), sb.data(), n * sizeof(double)) == 0)
          << "weighted_accum differs at n=" << n;

      // mean_from_sums: elementwise, bit-identical.
      std::vector<float> ma(n), mb(n);
      scalar.mean_from_sums(ma.data(), sum0.data(), 1.0 / 3.0, n);
      simd.mean_from_sums(mb.data(), sum0.data(), 1.0 / 3.0, n);
      EXPECT_TRUE(bit_equal(ma, mb)) << "mean_from_sums differs at n=" << n;

      // max_abs: order-independent, exact.
      EXPECT_EQ(scalar.max_abs(x.data(), n), simd.max_abs(x.data(), n))
          << "max_abs differs at n=" << n;

      // sum_squares: multi-accumulator in SIMD paths — relative agreement
      // at the ~n·eps_double level, not bit equality.
      double qa = scalar.sum_squares(x.data(), n, 1.0);
      double qb = simd.sum_squares(x.data(), n, 1.0);
      double tol = static_cast<double>(n + 4) * 4.0 * std::numeric_limits<double>::epsilon();
      EXPECT_NEAR(qa, qb, std::abs(qa) * tol) << "sum_squares drifts at n=" << n;
    }
  }
}

TEST(KernelEquivalence, MatmulFamily) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  struct Shape {
    std::size_t m, kk, n;
  };
  // Besides odd sizes: the training shapes of the case-study models (batch
  // 16 through 16->32->16->1), n == 1 with m >= 8 (the row-vectorised path,
  // with and without a row tail), and k == 1.
  const Shape shapes[] = {{1, 1, 1},   {3, 5, 7},   {8, 8, 8},   {17, 33, 9},
                          {32, 64, 16}, {16, 16, 32}, {16, 32, 16}, {16, 16, 1},
                          {13, 16, 1},  {16, 1, 16},  {9, 1, 3},    {5, 3, 1}};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (const Shape& s : shapes) {
      // `out` starts at +0.0 or at -0.0: a skipped update must leave -0.0.
      for (float seed : {0.0f, -0.0f}) {
        util::Rng rng(3000 + s.m * 100 + s.kk * 10 + s.n);
        std::vector<float> a = random_floats(s.m * s.kk, rng);
        std::vector<float> b = random_floats(s.kk * s.n, rng);
        // Plant exact zeros so the a==0 skip (signed-zero preservation) runs.
        for (std::size_t i = 0; i < a.size(); i += 7) a[i] = 0.0f;
        // Where all of a's column 1 is zero, b's row 1 may hold inf and NaN:
        // every product with them is skipped, so `out` stays finite.
        const bool poison = s.kk >= 2;
        if (poison) {
          for (std::size_t i = 0; i < s.m; ++i) a[i * s.kk + 1] = i % 2 == 0 ? 0.0f : -0.0f;
          for (std::size_t j = 0; j < s.n; ++j) b[s.n + j] = j % 2 == 0 ? inf : nan;
        }
        const std::string where = std::string(k::path_name(path)) + " at " +
                                  std::to_string(s.m) + "x" + std::to_string(s.kk) + "x" +
                                  std::to_string(s.n) + (std::signbit(seed) ? ", out -0.0" : "");

        std::vector<float> oa(s.m * s.n, seed), ob(s.m * s.n, seed);
        scalar.matmul(a.data(), b.data(), oa.data(), s.m, s.kk, s.n);
        simd.matmul(a.data(), b.data(), ob.data(), s.m, s.kk, s.n);
        EXPECT_TRUE(bit_equal(oa, ob)) << "matmul differs on " << where;
        if (poison) {
          for (float v : oa) EXPECT_TRUE(std::isfinite(v)) << "matmul skip let inf/NaN in";
        }

        // transposed_matmul: a is [k, m]; zero its row 1 to match b's row 1.
        std::vector<float> at = random_floats(s.kk * s.m, rng);
        for (std::size_t i = 0; i < at.size(); i += 5) at[i] = 0.0f;
        if (poison)
          for (std::size_t i = 0; i < s.m; ++i) at[s.m + i] = 0.0f;
        std::vector<float> ta(s.m * s.n, seed), tb(s.m * s.n, seed);
        scalar.transposed_matmul(at.data(), b.data(), ta.data(), s.kk, s.m, s.n);
        simd.transposed_matmul(at.data(), b.data(), tb.data(), s.kk, s.m, s.n);
        EXPECT_TRUE(bit_equal(ta, tb)) << "transposed_matmul differs on " << where;
        if (poison) {
          for (float v : ta)
            EXPECT_TRUE(std::isfinite(v)) << "transposed_matmul skip let inf/NaN in";
        }

        // matmul_transposed: b is [n, k]; dot products agree within 1 ULP.
        std::vector<float> bt = random_floats(s.n * s.kk, rng);
        std::vector<float> da(s.m * s.n, seed), db(s.m * s.n, seed);
        scalar.matmul_transposed(a.data(), bt.data(), da.data(), s.m, s.kk, s.n);
        simd.matmul_transposed(a.data(), bt.data(), db.data(), s.m, s.kk, s.n);
        for (std::size_t i = 0; i < da.size(); ++i)
          EXPECT_TRUE(within_one_ulp(da[i], db[i]))
              << "matmul_transposed element " << i << " beyond 1 ULP on " << where << ": "
              << da[i] << " vs " << db[i];
      }
    }
  }
}

// ReLU pair: bit-equal across paths on the awkward values (signed zeros,
// NaN, subnormals, infinities), and the scalar reference has the documented
// semantics — including that masking the backward pass by the forward
// output gives the same gradient as masking by its input.
TEST(KernelEquivalence, ReluPairBitIdentical) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 4,
                            -std::numeric_limits<float>::min() / 4,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            1.5f,
                            -2.25f};
  for (std::size_t n : kSizes) {
    util::Rng rng(4000 + n);
    std::vector<float> x = random_floats(n, rng);
    for (std::size_t i = 0; i < n; ++i)
      if (i % 2 == 0) x[i] = specials[(i / 2) % std::size(specials)];
    const std::vector<float> g = random_floats(n, rng);

    std::vector<float> y(n), d_in(n), d_in_by_y(n);
    scalar.relu_forward(y.data(), x.data(), n);
    scalar.relu_backward(d_in.data(), g.data(), x.data(), n);
    scalar.relu_backward(d_in_by_y.data(), g.data(), y.data(), n);
    EXPECT_TRUE(bit_equal(d_in, d_in_by_y)) << "masking by output differs at n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] < 0.0f) {
        EXPECT_EQ(std::signbit(y[i]), false);
        EXPECT_EQ(y[i], 0.0f);
      } else {
        EXPECT_EQ(0, std::memcmp(&y[i], &x[i], sizeof(float))) << "relu changed " << x[i];
      }
      if (x[i] <= 0.0f)
        EXPECT_TRUE(d_in[i] == 0.0f && !std::signbit(d_in[i]));
      else
        EXPECT_EQ(0, std::memcmp(&d_in[i], &g[i], sizeof(float)));
    }

    for (k::KernelPath path : simd_paths()) {
      const auto& simd = k::table_for(path);
      std::vector<float> ys(n), ds(n);
      simd.relu_forward(ys.data(), x.data(), n);
      simd.relu_backward(ds.data(), g.data(), x.data(), n);
      EXPECT_TRUE(bit_equal(y, ys)) << "relu_forward differs on " << k::path_name(path)
                                    << " at n=" << n;
      EXPECT_TRUE(bit_equal(d_in, ds)) << "relu_backward differs on " << k::path_name(path)
                                       << " at n=" << n;
      // In place (d_in aliasing d_out), as the kernel contract allows.
      std::vector<float> inplace = g;
      simd.relu_backward(inplace.data(), inplace.data(), y.data(), n);
      EXPECT_TRUE(bit_equal(d_in, inplace)) << "in-place relu_backward differs at n=" << n;
    }
  }
}

TEST(KernelEquivalence, GatherScatterExact) {
  constexpr std::size_t kVocab = 50, kDim = 33;
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  util::Rng rng(77);
  const std::vector<float> table0 = random_floats(kVocab * kDim, rng);
  const std::vector<float> grad = random_floats(kDim, rng);
  // Out-of-range ids exercise the clamp; duplicates exercise accumulation.
  const std::vector<std::int32_t> tokens = {0, 5, 5, 49, -3, 1000, 17};

  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, tokens.size()}) {
      std::vector<float> oa(kDim, 0.0f), ob(kDim, 0.0f);
      scalar.gather_mean_rows(table0.data(), kDim, tokens.data(), count, kVocab, oa.data());
      simd.gather_mean_rows(table0.data(), kDim, tokens.data(), count, kVocab, ob.data());
      EXPECT_TRUE(bit_equal(oa, ob)) << "gather_mean_rows differs at count=" << count;

      std::vector<float> ta = table0, tb = table0;
      scalar.scatter_add_rows(ta.data(), kDim, tokens.data(), count, kVocab, grad.data(),
                              0.25f);
      simd.scatter_add_rows(tb.data(), kDim, tokens.data(), count, kVocab, grad.data(), 0.25f);
      EXPECT_TRUE(bit_equal(ta, tb)) << "scatter_add_rows differs at count=" << count;
    }
  }
}

// Chaining sum_squares calls on the scalar path must reproduce one long
// accumulation exactly — optimizer::clip_gradients sweeps parameter tensors
// in sequence and relies on this to match the old single-loop numerics.
TEST(KernelEquivalence, ScalarSumSquaresChainsExactly) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  util::Rng rng(5);
  const std::vector<float> x = random_floats(1000, rng);
  double whole = scalar.sum_squares(x.data(), x.size(), 0.0);
  double chained = scalar.sum_squares(x.data(), 400, 0.0);
  chained = scalar.sum_squares(x.data() + 400, 600, chained);
  EXPECT_EQ(whole, chained);
}

class KernelDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_spec_ = k::requested_spec(); }
  void TearDown() override { k::set_path(saved_spec_); }
  std::string saved_spec_;
};

TEST_F(KernelDispatchTest, SetPathPinsAndReports) {
  k::set_path("scalar");
  EXPECT_EQ(k::active_path(), k::KernelPath::kScalar);
  EXPECT_EQ(k::requested_spec(), "scalar");
  EXPECT_EQ(&k::active(), &k::table_for(k::KernelPath::kScalar));

  k::set_path("auto");
  EXPECT_EQ(k::requested_spec(), "auto");
  EXPECT_TRUE(k::path_supported(k::active_path()));
}

TEST_F(KernelDispatchTest, UnknownSpecRejected) {
  EXPECT_THROW(k::set_path("avx512"), util::CheckError);
  EXPECT_THROW(k::set_path(""), util::CheckError);
}

TEST_F(KernelDispatchTest, UnsupportedPathRejected) {
  // At most one of avx2/neon exists in any one build; the other must throw.
  EXPECT_TRUE(!k::path_supported(k::KernelPath::kAvx2) ||
              !k::path_supported(k::KernelPath::kNeon));
  for (k::KernelPath p : {k::KernelPath::kAvx2, k::KernelPath::kNeon}) {
    if (!k::path_supported(p)) {
      EXPECT_THROW(k::table_for(p), util::CheckError);
      EXPECT_THROW(k::set_path(k::path_name(p)), util::CheckError);
    }
  }
  EXPECT_TRUE(k::path_supported(k::KernelPath::kScalar));
}

// The fused clip+noise kernel must be bit-invisible vs the classic two-pass
// clip-then-add-noise it replaced, within a kernel path.
TEST(ClipNoise, MatchesTwoPassReferenceBitForBit) {
  for (double stddev : {0.0, 0.75}) {
    for (double clip_norm : {0.5, 1e9}) {  // clipped and unclipped regimes
      util::Rng rng_fused(42), rng_ref(42);
      util::Rng data_rng(9);
      std::vector<float> fused = random_floats(513, data_rng);
      std::vector<float> ref = fused;

      double norm_fused =
          k::clip_noise(fused.data(), fused.size(), clip_norm, stddev, rng_fused);

      // Inline two-pass reference on the same (active) kernel path.
      const auto& t = k::active();
      double norm_ref = std::sqrt(t.sum_squares(ref.data(), ref.size(), 0.0));
      float scale = norm_ref > clip_norm ? static_cast<float>(clip_norm / norm_ref) : 1.0f;
      if (stddev == 0.0) {
        if (scale != 1.0f) t.scale(ref.data(), scale, ref.size());
      } else {
        std::vector<float> noise(ref.size());
        for (float& v : noise) v = static_cast<float>(rng_ref.normal(0.0, stddev));
        t.scale_add(ref.data(), scale, noise.data(), ref.size());
      }

      EXPECT_EQ(norm_fused, norm_ref);
      EXPECT_TRUE(bit_equal(fused, ref))
          << "clip_noise diverges from two-pass at stddev=" << stddev
          << " clip_norm=" << clip_norm;
      // Both rngs must have consumed the same draws.
      EXPECT_EQ(rng_fused.normal(), rng_ref.normal());
    }
  }
}

}  // namespace
}  // namespace flint
