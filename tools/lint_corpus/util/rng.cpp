// Fixture: the rng rule has no util/rng exemption, so a raw engine in
// util/rng.cpp itself must be flagged.
#include <random>

namespace fixture {
unsigned long long draw() {
  std::mt19937_64 engine(7);
  return engine();
}
}  // namespace fixture
