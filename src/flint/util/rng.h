// Deterministic random number generation for FLINT.
//
// Every stochastic component in the platform takes an explicit Rng& so that
// simulations are reproducible bit-for-bit from a seed. Trials derive child
// seeds via Rng::fork(), which decorrelates streams without global state.
//
// The engine is xoshiro256** (Blackman & Vigna): four 64-bit words of state,
// seeded by four SplitMix64 steps, so a fresh stream costs a few ns and
// derive_stream() can key one per client and per task. Every sampler is
// written out in rng.cpp on top of 53-bit canonical doubles rather than
// delegating to std::*_distribution, whose algorithms are
// implementation-defined: a draw depends on the seed and this file only,
// never on the standard library.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "flint/util/check.h"

namespace flint::util {

/// SplitMix64 hash step; useful for deriving per-entity seeds from ids.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random source: a xoshiro256** engine with the
/// distributions FLINT needs (heavy tails, Dirichlet, Zipf, sampling).
class Rng {
 public:
  /// The engine state: four 64-bit words, never all zero.
  using State = std::array<std::uint64_t, 4>;

  /// Seeds the state with the SplitMix64 sequence started at `seed`.
  explicit Rng(std::uint64_t seed = 42)
      : s_{splitmix64(seed), splitmix64(seed + 0x9e3779b97f4a7c15ULL),
           splitmix64(seed + 2 * 0x9e3779b97f4a7c15ULL),
           splitmix64(seed + 3 * 0x9e3779b97f4a7c15ULL)},
        seed_(seed) {}

  /// The seed this stream was created with.
  std::uint64_t seed() const { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Normal draw.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal draw with parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential draw with the given rate (lambda > 0).
  double exponential(double rate);

  /// Pareto draw: x_min * U^{-1/alpha}; heavy-tailed for small alpha.
  double pareto(double x_min, double alpha);

  /// Gamma draw with the given shape (k > 0) and scale.
  double gamma(double shape, double scale = 1.0);

  /// Poisson draw with the given mean.
  std::int64_t poisson(double mean);

  /// Zipf-distributed rank in [0, n) with exponent s >= 0.
  /// s = 0 degenerates to uniform. Inverts the cumulative harmonic weights,
  /// which are cached per thread for the last (n, s) drawn.
  std::size_t zipf(std::size_t n, double s);

  /// Dirichlet draw over k categories with symmetric concentration alpha.
  std::vector<double> dirichlet(std::size_t k, double alpha);

  /// Dirichlet draw with per-category concentrations.
  std::vector<double> dirichlet(const std::vector<double>& alphas);

  /// Index drawn from a discrete distribution proportional to weights.
  std::size_t categorical(const std::vector<double>& weights);

  /// k distinct indices uniformly sampled from [0, n) (Floyd's algorithm).
  /// Order of the returned indices is unspecified. Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Child stream with a seed derived from this stream; decorrelated from
  /// the parent's subsequent draws.
  Rng fork();

  /// Raw 64-bit draw (for hashing / seeding).
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) from the top 53 bits of one draw: the
  /// primitive every real-valued sampler is built on.
  double canonical() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Snapshot of the engine state for checkpoint/resume; restore it with
  /// set_state(). The seed is not part of the snapshot: callers re-derive
  /// the stream and then overlay the state, so seed() stays meaningful
  /// after a resume.
  const State& state() const { return s_; }

  /// Restore a state captured by state(). Throws CheckError unless `words`
  /// holds exactly four words, not all zero (xoshiro's one invalid state).
  void set_state(std::span<const std::uint64_t> words);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  State s_;
  std::uint64_t seed_;
};

/// Counter-based stream derivation: a fresh Rng keyed by (seed, stream,
/// substream), independent of any engine state. The parallel runners use it
/// to give every simulated task its own decorrelated streams — the result
/// depends only on the key, never on which thread draws or in what order,
/// which is what makes `--threads N` change wall time and nothing else.
Rng derive_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t substream = 0);

}  // namespace flint::util
