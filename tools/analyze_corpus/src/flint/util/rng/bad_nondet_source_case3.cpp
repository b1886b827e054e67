// Corpus: nondet-source must fire inside util/rng too. The samplers there
// are written out by hand precisely so that no std::*_distribution remains
// anywhere; a stdlib sampler creeping back into the RNG's own home would make
// every trace depend on the standard library again.
#include <random>

double sample_normal_bad(std::mt19937_64& engine, double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine);
}
