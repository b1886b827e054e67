#include "flint/util/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flint::util {

namespace {

/// Full 64x64 -> 128-bit product (GCC/Clang's __int128): returns the low
/// word, stores the high one.
std::uint64_t mul_wide(std::uint64_t a, std::uint64_t b, std::uint64_t& high) {
  __extension__ using u128 = unsigned __int128;
  const u128 p = static_cast<u128>(a) * b;
  high = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
}

/// Uniform integer in [0, range) for range >= 1: Lemire's nearly-divisionless
/// method. The high word of draw * range is the result; draws whose low word
/// falls below 2^64 mod range are rejected, which removes the modulo bias and
/// costs a division only on the rare path that needs one.
std::uint64_t bounded(Rng& rng, std::uint64_t range) {
  std::uint64_t high = 0;
  std::uint64_t low = mul_wide(rng.next_u64(), range, high);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) low = mul_wide(rng.next_u64(), range, high);
  }
  return high;
}

}  // namespace

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FLINT_CHECK_MSG(lo <= hi, "uniform_int bounds inverted: " << lo << " > " << hi);
  // hi - lo in unsigned arithmetic: exact for every lo <= hi, including the
  // full [INT64_MIN, INT64_MAX] range, which takes a raw draw.
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t offset =
      span == std::numeric_limits<std::uint64_t>::max() ? next_u64() : bounded(*this, span + 1);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

double Rng::uniform(double lo, double hi) {
  FLINT_CHECK(lo <= hi);
  const double x = lo + (hi - lo) * canonical();
  // Rounding can carry lo + (hi - lo) * u up to hi itself; keep [lo, hi).
  if (x < hi) return x;
  return lo < hi ? std::nextafter(hi, lo) : lo;
}

bool Rng::bernoulli(double p) {
  FLINT_CHECK_PROB(p);
  return canonical() < p;
}

double Rng::normal(double mean, double stddev) {
  // Marsaglia's polar method. Each accepted pair yields two independent
  // normals; only one is returned, so the state stays four words.
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * canonical() - 1.0;
    y = 2.0 * canonical() - 1.0;
    r2 = x * x + y * y;
  } while (r2 >= 1.0 || r2 <= 0.0);
  return mean + stddev * x * std::sqrt(-2.0 * std::log(r2) / r2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
  FLINT_CHECK_FINITE(rate);
  FLINT_CHECK_GT(rate, 0.0);
  // Inversion; log1p keeps full precision for small u, and u < 1 keeps the
  // result finite.
  return -std::log1p(-canonical()) / rate;
}

double Rng::pareto(double x_min, double alpha) {
  FLINT_CHECK_GT(x_min, 0.0);
  FLINT_CHECK_GT(alpha, 0.0);
  double u = uniform(0.0, 1.0);
  // Guard against u == 0 which would yield infinity.
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return x_min * std::pow(u, -1.0 / alpha);
}

double Rng::gamma(double shape, double scale) {
  FLINT_CHECK_GT(shape, 0.0);
  FLINT_CHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boost: if G ~ Gamma(shape + 1) and U ~ U(0, 1], then G * U^(1/shape)
    // ~ Gamma(shape).
    const double g = gamma(shape + 1.0, scale);
    return g * std::pow(1.0 - canonical(), 1.0 / shape);
  }
  // Marsaglia & Tsang (2000): squeeze-and-reject over a cubed normal.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0, v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = canonical();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v * scale;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v * scale;
  }
}

namespace {

/// Inversion by sequential search (Devroye): one uniform, multiplicative
/// pmf recurrence. Exact and fast for small means.
std::int64_t poisson_inversion(Rng& rng, double mean) {
  double u = rng.canonical();
  double p = std::exp(-mean);
  double cum = p;
  std::int64_t k = 0;
  // Hard iteration cap: P(K > mean + 40*sqrt(mean) + 64) is negligible, and
  // the cap keeps a pathological float state from looping forever.
  auto cap = static_cast<std::int64_t>(mean + 40.0 * std::sqrt(mean) + 64.0);
  while (u > cum && k < cap) {
    ++k;
    p *= mean / static_cast<double>(k);
    cum += p;
  }
  return k;
}

/// Hormann's PTRS transformed-rejection sampler for large means.
std::int64_t poisson_ptrs(Rng& rng, double mean) {
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  const double log_mean = std::log(mean);
  for (;;) {
    double u = rng.canonical() - 0.5;
    double v = rng.canonical();
    double us = 0.5 - std::abs(u);
    double kf = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kf);
    if (kf < 0.0 || (us < 0.013 && v > us)) continue;
    double k = kf;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - std::lgamma(k + 1.0))
      return static_cast<std::int64_t>(kf);
  }
}

/// Cumulative harmonic weights cdf[k] = sum_{i<=k+1} 1/i^s, summed in index
/// order, for the (n, s) last drawn on this thread. Rebuilt only when the
/// parameters change, so a run of draws over one vocabulary costs one pow()
/// pass instead of two per draw.
const std::vector<double>& zipf_cdf(std::size_t n, double s) {
  thread_local std::size_t cached_n = 0;
  thread_local double cached_s = 0.0;
  thread_local std::vector<double> cdf;
  if (n != cached_n || s != cached_s) {
    cdf.resize(n);
    double acc = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i), s);
      cdf[i - 1] = acc;
    }
    cached_n = n;
    cached_s = s;
  }
  return cdf;
}

}  // namespace

std::int64_t Rng::poisson(double mean) {
  FLINT_CHECK_FINITE(mean);
  FLINT_CHECK_GE(mean, 0.0);
  // fpclassify makes the "exactly zero, not merely small" intent explicit:
  // tiny positive means are valid Poisson parameters.
  if (std::fpclassify(mean) == FP_ZERO) return 0;
  if (mean < 10.0) return poisson_inversion(*this, mean);
  return poisson_ptrs(*this, mean);
}

std::size_t Rng::zipf(std::size_t n, double s) {
  FLINT_CHECK_GT(n, std::size_t{0});
  FLINT_CHECK_FINITE(s);
  if (n == 1) return 0;
  // Near-zero exponents make every 1/i^s weight ~1; short-circuit to the
  // exact uniform draw instead of accumulating n pow() round-off errors.
  if (std::abs(s) < 1e-12)
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  // Inverse-CDF over the harmonic weights: one uniform, then a binary search
  // of the cached cumulative sums.
  const std::vector<double>& cdf = zipf_cdf(n, s);
  double u = uniform(0.0, cdf.back());
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? n - 1 : static_cast<std::size_t>(it - cdf.begin());
}

std::vector<double> Rng::dirichlet(std::size_t k, double alpha) {
  return dirichlet(std::vector<double>(k, alpha));
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alphas) {
  FLINT_CHECK(!alphas.empty());
  std::vector<double> out(alphas.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    FLINT_CHECK(alphas[i] > 0.0);
    out[i] = gamma(alphas[i], 1.0);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Numerically degenerate draw (possible for tiny alphas): fall back to
    // a one-hot on a uniform category, the limiting Dirichlet behaviour.
    std::fill(out.begin(), out.end(), 0.0);
    out[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))] = 1.0;
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  return CategoricalTable(weights).sample(*this);
}

CategoricalTable::CategoricalTable(const std::vector<double>& weights) {
  FLINT_CHECK(!weights.empty());
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    FLINT_CHECK(w >= 0.0);
    acc += w;
    cumulative_.push_back(acc);
  }
  FLINT_CHECK_MSG(acc > 0.0, "categorical weights sum to zero");
}

std::size_t CategoricalTable::sample(Rng& rng) const {
  const double u = rng.uniform(0.0, cumulative_.back());
  // The running sums never decrease, so "u > acc" holds on a prefix and the
  // partition point is the first i with u <= acc. A u that exceeds every sum
  // (or is NaN, from an infinite weight) falls back to the last index.
  auto it = std::partition_point(cumulative_.begin(), cumulative_.end(),
                                 [u](double acc) { return !(u <= acc); });
  return it == cumulative_.end() ? cumulative_.size() - 1
                                 : static_cast<std::size_t>(it - cumulative_.begin());
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  FLINT_CHECK_MSG(k <= n, "cannot sample " << k << " from " << n);
  // Floyd's algorithm: O(k) expected insertions.
  std::vector<std::size_t> out;
  out.reserve(k);
  std::vector<bool> chosen;  // used only for small n to keep memory bounded
  if (n <= 1'000'000) {
    chosen.assign(n, false);
    for (std::size_t j = n - k; j < n; ++j) {
      std::size_t t = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(j)));
      if (chosen[t]) t = j;
      chosen[t] = true;
      out.push_back(t);
    }
  } else {
    // For very large n, use a hash-set-free variant: sort-and-dedup of
    // uniform draws with resampling. Collisions are rare when k << n.
    while (out.size() < k) {
      std::size_t t = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
      bool dup = false;
      for (std::size_t v : out) {
        if (v == t) {
          dup = true;
          break;
        }
      }
      if (!dup) out.push_back(t);
    }
  }
  return out;
}

Rng Rng::fork() { return Rng(splitmix64(next_u64())); }

void Rng::set_state(std::span<const std::uint64_t> words) {
  FLINT_CHECK_MSG(words.size() == s_.size(),
                  "rng state has " << words.size() << " words, expected " << s_.size());
  FLINT_CHECK_MSG((words[0] | words[1] | words[2] | words[3]) != 0, "rng state is all zero");
  std::copy(words.begin(), words.end(), s_.begin());
}

Rng derive_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t substream) {
  // Chained splitmix64 over the key components; each link fully mixes, so
  // adjacent (stream, substream) pairs land on decorrelated seeds.
  std::uint64_t s = splitmix64(seed);
  s = splitmix64(s ^ stream);
  s = splitmix64(s ^ substream);
  return Rng(s);
}

}  // namespace flint::util
