// Property tests for the arrival scheduler: against randomized traces, its
// stream must match a brute-force reference and respect its invariants.
// The async leader's correctness ("dispatch them to workers in the correct
// order", §3.4) rests on this component.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "flint/sim/scheduler.h"
#include "flint/util/rng.h"

namespace flint::sim {
namespace {

device::AvailabilityTrace random_trace(util::Rng& rng, std::size_t windows) {
  std::vector<device::AvailabilityWindow> out;
  out.reserve(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    double start = rng.uniform(0.0, 1000.0);
    double len = rng.uniform(1.0, 200.0);
    out.push_back({static_cast<std::uint64_t>(rng.uniform_int(0, 30)),
                   static_cast<std::size_t>(rng.uniform_int(0, 26)), start, start + len});
  }
  return device::AvailabilityTrace(std::move(out));
}

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, MatchesBruteForceReference) {
  util::Rng rng(GetParam());
  auto trace = random_trace(rng, 200);
  device::TraceWindowStream windows(trace);
  ArrivalScheduler scheduler(windows);

  // Reference: windows sorted by start; a query at time t returns the
  // earliest unconsumed window with end > t, at effective time max(start, t).
  std::vector<device::AvailabilityWindow> reference = trace.windows();
  std::vector<bool> consumed(reference.size(), false);
  auto reference_next = [&](VirtualTime t)
      -> std::optional<std::pair<VirtualTime, std::uint64_t>> {
    std::optional<std::size_t> best;
    VirtualTime best_time = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (consumed[i] || reference[i].end <= t) continue;
      VirtualTime eff = std::max(reference[i].start, t);
      if (!best.has_value() || eff < best_time) {
        best = i;
        best_time = eff;
      }
    }
    if (!best.has_value()) return std::nullopt;
    consumed[*best] = true;
    return std::make_pair(best_time, reference[*best].client_id);
  };

  // Non-decreasing random query times (the leader's clock only advances).
  VirtualTime t = 0.0;
  for (int step = 0; step < 300; ++step) {
    t += rng.uniform(0.0, 10.0);
    auto expected = reference_next(t);
    auto got = scheduler.next(t);
    ASSERT_EQ(expected.has_value(), got.has_value()) << "step " << step << " t=" << t;
    if (!expected.has_value()) break;
    EXPECT_DOUBLE_EQ(got->time, expected->first) << "step " << step;
    // Clients can tie on effective time; the time itself must agree and the
    // returned window must genuinely cover it.
    EXPECT_GE(got->time, t);
    EXPECT_LT(got->time, got->window_end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

class RequeuePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RequeuePropertyTest, InvariantsUnderRandomRequeues) {
  util::Rng rng(GetParam());
  auto trace = random_trace(rng, 150);
  device::TraceWindowStream windows(trace);
  ArrivalScheduler scheduler(windows);

  VirtualTime t = 0.0;
  std::size_t served = 0;
  for (int step = 0; step < 1000; ++step) {
    auto arrival = scheduler.next(t);
    if (!arrival.has_value()) break;
    // Invariant 1: never offered outside its window or before the query time.
    ASSERT_GE(arrival->time, t);
    ASSERT_LT(arrival->time, arrival->window_end);
    if (rng.bernoulli(0.4)) {
      // Random defer within the window: must be re-offered later, not lost
      // to the past.
      VirtualTime retry = arrival->time + rng.uniform(0.0, 50.0);
      scheduler.requeue(*arrival, retry);
    } else {
      ++served;
      t = arrival->time;  // leader advances to the dispatch time
    }
    t += rng.uniform(0.0, 2.0);
  }
  // Invariant 2: the stream terminates (requeues past window end are
  // dropped) and serves a sensible number of windows.
  EXPECT_GT(served, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequeuePropertyTest, ::testing::Values(3u, 17u, 171u, 7171u));

TEST(SchedulerProperty, PeekAlwaysAgreesWithNext) {
  util::Rng rng(5);
  auto trace = random_trace(rng, 100);
  device::TraceWindowStream windows(trace);
  ArrivalScheduler scheduler(windows);
  VirtualTime t = 0.0;
  while (true) {
    auto peeked = scheduler.peek_time(t);
    auto arrival = scheduler.next(t);
    ASSERT_EQ(peeked.has_value(), arrival.has_value());
    if (!arrival.has_value()) break;
    EXPECT_DOUBLE_EQ(*peeked, arrival->time);
    t = arrival->time + rng.uniform(0.0, 5.0);
  }
}

}  // namespace
}  // namespace flint::sim
