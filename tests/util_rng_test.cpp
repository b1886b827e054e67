#include "flint/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <set>
#include <vector>

#include "flint/util/stats.h"

namespace flint::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntInvertedBoundsThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), CheckError);
}

TEST(Rng, UniformRealBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(11);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliRejectsBadProbability) {
  Rng rng(11);
  EXPECT_THROW(rng.bernoulli(-0.1), CheckError);
  EXPECT_THROW(rng.bernoulli(1.1), CheckError);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalMatchesMomentFormula) {
  Rng rng(17);
  LognormalParams p = lognormal_from_moments(100.0, 150.0);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal(p.mu, p.sigma));
  EXPECT_NEAR(s.mean(), 100.0, 5.0);
  EXPECT_NEAR(s.stddev(), 150.0, 15.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(Rng, ParetoLowerBound) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ParetoHeavierTailForSmallerAlpha) {
  Rng rng(23);
  double p99_heavy = 0.0, p99_light = 0.0;
  std::vector<double> heavy, light;
  for (int i = 0; i < 20000; ++i) {
    heavy.push_back(rng.pareto(1.0, 0.9));
    light.push_back(rng.pareto(1.0, 3.0));
  }
  p99_heavy = percentile(heavy, 99.0);
  p99_light = percentile(light, 99.0);
  EXPECT_GT(p99_heavy, p99_light * 3.0);
}

TEST(Rng, PoissonMean) {
  Rng rng(29);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(rng.poisson(4.0)));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, PoissonLargeMeanMatchesMoments) {
  // Large means route through the PTRS rejection sampler rather than
  // inversion; mean and variance must both track lambda (for Poisson they
  // are equal), or the transformed-rejection constants are off.
  for (double lambda : {15.0, 60.0, 400.0}) {
    Rng rng(41);
    RunningStats s;
    for (int i = 0; i < 30000; ++i) s.add(static_cast<double>(rng.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 0.02 * lambda) << "lambda " << lambda;
    EXPECT_NEAR(s.variance(), lambda, 0.10 * lambda) << "lambda " << lambda;
  }
}

TEST(Rng, PoissonIsDeterministicGivenSeedInBothRegimes) {
  // The whole reason the sampler is hand-rolled: identical draws from
  // identical engine state, on every platform and standard library. Covers
  // the inversion regime (mean < 10) and the PTRS regime.
  for (double lambda : {0.3, 4.0, 9.9, 10.1, 250.0}) {
    Rng a(77);
    Rng b(77);
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(a.poisson(lambda), b.poisson(lambda)) << "lambda " << lambda << " draw " << i;
  }
}

TEST(Rng, ZipfInRangeAndSkewed) {
  Rng rng(31);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    std::size_t v = rng.zipf(10, 1.2);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Rank 0 should dominate rank 9 heavily.
  EXPECT_GT(counts[0], counts[9] * 5);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(31);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(37);
  for (double alpha : {0.1, 1.0, 10.0}) {
    auto v = rng.dirichlet(8, alpha);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng(41);
  double max_small = 0.0, max_large = 0.0;
  for (int i = 0; i < 200; ++i) {
    auto s = rng.dirichlet(10, 0.05);
    auto l = rng.dirichlet(10, 50.0);
    max_small += *std::max_element(s.begin(), s.end());
    max_large += *std::max_element(l.begin(), l.end());
  }
  EXPECT_GT(max_small / 200.0, 0.7);   // near one-hot
  EXPECT_LT(max_large / 200.0, 0.25);  // near uniform
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(43);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, CategoricalRejectsZeroTotal) {
  Rng rng(43);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(w), CheckError);
}

/// The linear scan Rng::categorical ran before CategoricalTable existed: the
/// reference the table must match draw for draw.
std::size_t categorical_linear_scan(Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double u = rng.uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

TEST(CategoricalTable, MatchesLinearScanDrawForDraw) {
  std::vector<std::vector<double>> cases = {
      {1.0},
      {0.0, 1.0},
      {1.0, 0.0},
      {0.0, 0.0, 3.0, 0.0},
      {1.0, 0.0, 3.0},
      {0.75, 0.15, 0.10},
      {1e-300, 1.0, 1e-300, 0.0, 1e-300},
  };
  Rng gen(5);
  std::vector<double> many(48);  // the diurnal-slot table's size, with zeros
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = i % 7 == 3 ? 0.0 : gen.uniform(0.0, 2.0);
  cases.push_back(many);

  for (const auto& w : cases) {
    CategoricalTable table(w);
    EXPECT_EQ(table.size(), w.size());
    Rng a(17);
    Rng b(17);
    Rng c(17);
    for (int i = 0; i < 5000; ++i) {
      const std::size_t expect = categorical_linear_scan(b, w);
      ASSERT_EQ(table.sample(a), expect) << "draw " << i << " of " << w.size() << " weights";
      ASSERT_EQ(c.categorical(w), expect);
    }
    EXPECT_EQ(a.state(), b.state());  // the same single draw per sample
    EXPECT_EQ(c.state(), b.state());
  }
}

/// Inverse of an odd number modulo 2^64 (Newton's iteration doubles the
/// correct low bits each step, from 3).
std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// An engine whose next canonical() is exactly `c`, a multiple of 2^-53 in
/// [0, 1): inverts xoshiro256**'s output function rotl(s[1] * 5, 7) * 9.
Rng rng_drawing(double c) {
  const std::uint64_t out = static_cast<std::uint64_t>(c * 0x1.0p53) << 11;
  const std::uint64_t r = out * inverse_mod_2_64(9);
  const std::uint64_t s1 = ((r >> 7) | (r << 57)) * inverse_mod_2_64(5);
  Rng rng;
  const std::uint64_t words[4] = {1, s1, 2, 3};
  rng.set_state(words);
  Rng probe = rng;
  EXPECT_EQ(probe.canonical(), c);
  return rng;
}

TEST(CategoricalTable, DrawsExactlyOnABoundaryTakeTheFirstIndexReachingIt) {
  // Running sums 1, 1, 2, 4, so u = 4 * canonical(). A u equal to a running
  // sum goes to the first index reaching it — never to the zero weight that
  // repeats the sum — and u = 0 goes to index 0 even when its weight is 0.
  const std::vector<double> w = {1.0, 0.0, 1.0, 2.0};
  const std::vector<double> leading_zero = {0.0, 1.0};
  struct Case {
    const std::vector<double>* weights;
    double c;
    std::size_t expect;
  };
  const double ulp = 0x1.0p-53;
  const Case cases[] = {
      {&w, 0.0, 0},          {&w, 0.25, 0},          {&w, 0.25 + ulp, 2}, {&w, 0.5, 2},
      {&w, 0.5 + ulp, 3},    {&w, 1.0 - ulp, 3},     {&leading_zero, 0.0, 0},
      {&leading_zero, ulp, 1},
  };
  for (const auto& c : cases) {
    CategoricalTable table(*c.weights);
    Rng a = rng_drawing(c.c);
    Rng b = rng_drawing(c.c);
    EXPECT_EQ(table.sample(a), c.expect) << "canonical " << c.c;
    EXPECT_EQ(categorical_linear_scan(b, *c.weights), c.expect) << "canonical " << c.c;
  }
}

TEST(CategoricalTable, ChecksWeightsOnceAtConstruction) {
  EXPECT_THROW(CategoricalTable(std::vector<double>{}), CheckError);
  EXPECT_THROW(CategoricalTable(std::vector<double>{1.0, -0.5}), CheckError);
  EXPECT_THROW(CategoricalTable(std::vector<double>{1.0, std::nan("")}), CheckError);
  EXPECT_THROW(CategoricalTable(std::vector<double>{0.0, 0.0}), CheckError);
}

class SampleWithoutReplacementTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SampleWithoutReplacementTest, DistinctAndInRange) {
  auto [n, k] = GetParam();
  Rng rng(47);
  auto sample = rng.sample_without_replacement(static_cast<std::size_t>(n),
                                               static_cast<std::size_t>(k));
  EXPECT_EQ(sample.size(), static_cast<std::size_t>(k));
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(k));
  for (std::size_t v : sample) EXPECT_LT(v, static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SampleWithoutReplacementTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{10, 10}, std::pair{10, 3},
                                           std::pair{1000, 50}, std::pair{5000, 1},
                                           std::pair{100, 99}));

TEST(Rng, SampleWithoutReplacementTooManyThrows) {
  Rng rng(51);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(59);
  Rng child = parent.fork();
  // Child stream shouldn't mirror the parent.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SerializeStateRoundTrip) {
  Rng a(991);
  for (int i = 0; i < 37; ++i) a.next_u64();  // advance into the stream
  std::vector<std::uint64_t> words(a.state().begin(), a.state().end());
  Rng b(12345);  // different seed: the snapshot overlays engine state only
  b.set_state(words);
  EXPECT_EQ(b.seed(), 12345u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DeserializeGarbageStateThrows) {
  Rng r(1);
  const std::vector<std::uint64_t> zero(4, 0), short_state(3, 7), long_state(5, 7), empty;
  EXPECT_THROW(r.set_state(zero), CheckError);  // xoshiro's one invalid state
  EXPECT_THROW(r.set_state(short_state), CheckError);
  EXPECT_THROW(r.set_state(long_state), CheckError);
  EXPECT_THROW(r.set_state(empty), CheckError);
}

TEST(Rng, GammaMomentsInBothRegimes) {
  // shape < 1 takes the boost path, shape >= 1 Marsaglia-Tsang directly.
  // Gamma(k, theta) has mean k*theta and variance k*theta^2.
  for (double shape : {0.3, 0.5, 1.0, 3.0, 9.5}) {
    Rng rng(61);
    RunningStats s;
    for (int i = 0; i < 40000; ++i) s.add(rng.gamma(shape, 2.0));
    EXPECT_NEAR(s.mean(), 2.0 * shape, 0.03 * 2.0 * shape) << "shape " << shape;
    EXPECT_NEAR(s.variance(), 4.0 * shape, 0.08 * 4.0 * shape) << "shape " << shape;
  }
}

TEST(Rng, UniformIntNonPowerOfTwoRangeIsFlat) {
  // A modulo-biased bounded draw would over-weight the low residues.
  Rng rng(67);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  for (int c : counts) EXPECT_NEAR(c, 10000, 400);
}

// ------------------------------------------------------------ golden values
//
// Draws are a pure function of the seed and util/rng.cpp, so they are pinned
// here: a change to the engine, its seeding or any sampler shows up as a
// failure in this block rather than as silently different simulation
// results. Integer-valued draws are exact everywhere. Real-valued samplers
// that go through libm (log, exp, pow) are compared to within 4 ulps, since
// the C standard does not require those functions to be correctly rounded.

TEST(RngGolden, SplitmixMatchesReferenceSequence) {
  // The first two outputs of the reference SplitMix64 generator seeded at 0.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ull), 0x6e789e6aa1b965f4ull);
}

TEST(RngGolden, EngineMatchesXoshiro256StarStarReference) {
  // Reference outputs of xoshiro256** from the state {1, 2, 3, 4}.
  Rng rng;
  const std::vector<std::uint64_t> state = {1, 2, 3, 4};
  rng.set_state(state);
  for (std::uint64_t want : {11520ull, 0ull, 1509978240ull, 1215971899390074240ull,
                             1216172134540287360ull, 607988272756665600ull})
    EXPECT_EQ(rng.next_u64(), want);
}

TEST(RngGolden, NextU64) {
  Rng rng(2024);
  EXPECT_EQ(rng.next_u64(), 0x0e48715a13d7772eull);
  EXPECT_EQ(rng.next_u64(), 0xc837f3ee8a7a1065ull);
  EXPECT_EQ(rng.next_u64(), 0x1272314b15ee5001ull);
}

TEST(RngGolden, UniformInt) {
  Rng small(2024);
  for (std::int64_t want : {0, 7, 0, 1}) EXPECT_EQ(small.uniform_int(0, 9), want);
  Rng odd(2024);  // a range of 1,000,010 values: not a power of two
  for (std::int64_t want : {55786, 782104, 72048}) EXPECT_EQ(odd.uniform_int(-7, 1000002), want);
  Rng full(2024);  // the full range takes one raw draw per value
  EXPECT_EQ(full.uniform_int(INT64_MIN, INT64_MAX), -8194174890306734290ll);
  EXPECT_EQ(full.uniform_int(INT64_MIN, INT64_MAX), 5203896100300918885ll);
  EXPECT_EQ(full.uniform_int(INT64_MIN, INT64_MAX), -7894192998266810367ll);
}

TEST(RngGolden, UniformAndBernoulli) {
  Rng u(2024);
  EXPECT_EQ(u.uniform(2.0, 5.0), 2.1673786673304898);
  EXPECT_EQ(u.uniform(2.0, 5.0), 4.3463113186002653);
  EXPECT_EQ(u.uniform(2.0, 5.0), 2.2161648201888902);
  Rng b(2024);
  for (bool want : {true, false, true, true, false, true}) EXPECT_EQ(b.bernoulli(0.3), want);
}

TEST(RngGolden, NormalLognormalExponential) {
  Rng n(2024);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), 2.575540997491665);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), -0.27106566374161245);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), 1.1577374345715863);
  Rng ln(2024);
  EXPECT_DOUBLE_EQ(ln.lognormal(0.5, 0.25), 2.0076053118914077);
  EXPECT_DOUBLE_EQ(ln.lognormal(0.5, 0.25), 1.4065175013072679);
  EXPECT_DOUBLE_EQ(ln.lognormal(0.5, 0.25), 1.6815520047619381);
  Rng e(2024);
  EXPECT_DOUBLE_EQ(e.exponential(4.0), 0.014352434942900642);
  EXPECT_DOUBLE_EQ(e.exponential(4.0), 0.38093408796305178);
  EXPECT_DOUBLE_EQ(e.exponential(4.0), 0.018695687650634518);
}

TEST(RngGolden, GammaAndPareto) {
  Rng boost(2024);  // shape < 1: the boost path
  EXPECT_DOUBLE_EQ(boost.gamma(0.5, 2.0), 2.4744342556480743);
  EXPECT_DOUBLE_EQ(boost.gamma(0.5, 2.0), 0.011688944129610806);
  EXPECT_DOUBLE_EQ(boost.gamma(0.5, 2.0), 3.1209074553936551);
  Rng mt(2024);  // shape >= 1: Marsaglia-Tsang directly
  EXPECT_DOUBLE_EQ(mt.gamma(3.0, 1.0), 4.1710392340642075);
  EXPECT_DOUBLE_EQ(mt.gamma(3.0, 1.0), 0.796976616490777);
  EXPECT_DOUBLE_EQ(mt.gamma(3.0, 1.0), 2.936981777790872);
  Rng p(2024);
  EXPECT_DOUBLE_EQ(p.pareto(1.0, 1.5), 6.8487939335546422);
  EXPECT_DOUBLE_EQ(p.pareto(1.0, 1.5), 1.1780319772606609);
  EXPECT_DOUBLE_EQ(p.pareto(1.0, 1.5), 5.7750731885933764);
}

TEST(RngGolden, PoissonBothRegimesAndZipf) {
  Rng inversion(2024);  // mean < 10
  for (std::int64_t want : {1, 4, 1, 1, 4}) EXPECT_EQ(inversion.poisson(3.0), want);
  Rng ptrs(2024);  // mean >= 10: transformed rejection
  for (std::int64_t want : {217, 221, 263, 245, 252}) EXPECT_EQ(ptrs.poisson(250.0), want);
  Rng z(2024);
  for (std::size_t want : {0u, 24u, 0u, 0u, 23u, 1u}) EXPECT_EQ(z.zipf(100, 1.1), want);
}

TEST(RngGolden, DeriveStreamAndFork) {
  Rng derived = derive_stream(7, 3, 1);
  EXPECT_EQ(derived.seed(), 0x10490351134c1271ull);
  EXPECT_EQ(derived.next_u64(), 0x4c7d061fea52af47ull);
  Rng parent(2024);
  EXPECT_EQ(parent.fork().seed(), 0xf87f7d5029fab202ull);
}

TEST(Splitmix, AvalanchesOnAdjacentInputs) {
  auto a = splitmix64(1), b = splitmix64(2);
  EXPECT_NE(a, b);
  int differing_bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing_bits, 10);
}

}  // namespace
}  // namespace flint::util
