// Streaming session traces and the session-generator correctness properties
// they depend on (DESIGN.md §17): every session inside the horizon whatever
// the timezone sign, a total sort order, a golden fixed-seed trace hash, and
// streaming-vs-materialized bit-equivalence on both the in-memory and the
// spill-to-disk-and-merge paths, including the bucketed merge's batch
// boundaries and read budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "flint/device/availability.h"
#include "flint/device/session_stream.h"
#include "flint/sim/scheduler.h"
#include "test_helpers.h"

namespace flint {
namespace {

namespace fs = std::filesystem;

device::SessionGeneratorConfig small_config() {
  device::SessionGeneratorConfig cfg;
  cfg.clients = 400;
  cfg.days = 3;
  return cfg;
}

void expect_session_eq(const device::Session& a, const device::Session& b) {
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.device_index, b.device_index);
  EXPECT_EQ(a.start, b.start);  // bitwise: both sides computed the same way
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.wifi, b.wifi);
  EXPECT_EQ(a.battery_pct, b.battery_pct);
  EXPECT_EQ(a.foreground, b.foreground);
}

// ------------------------------------------------ in-horizon (wrap semantics)

TEST(SessionGenerator, AllSessionsInsideHorizonForEveryTimezoneSign) {
  // Negative offsets used to push early-morning sessions to negative start
  // times; positive ones could overhang past the horizon. Circular wrapping
  // keeps every piece inside [0, days*86400).
  auto catalog = device::DeviceCatalog::standard();
  for (double tz : {-8.0, -3.5, 0.0, 5.75, 11.0}) {
    device::SessionGeneratorConfig cfg = small_config();
    cfg.timezone_offsets_h = {tz};
    cfg.timezone_weights = {1.0};
    util::Rng rng(101);
    auto log = device::generate_sessions(cfg, catalog, rng);
    const double horizon = cfg.days * device::kSecondsPerDay;
    ASSERT_FALSE(log.sessions.empty()) << "tz " << tz;
    for (const auto& s : log.sessions) {
      EXPECT_GE(s.start, 0.0) << "tz " << tz;
      EXPECT_LT(s.start, horizon) << "tz " << tz;
      EXPECT_LE(s.end, horizon) << "tz " << tz;
      EXPECT_GE(s.duration(), 1.0) << "tz " << tz;
    }
  }
}

// ----------------------------------------------------- total-order sorting

TEST(SessionGenerator, SessionOrderBreaksTiesByClientThenEnd) {
  device::Session a, b;
  a.start = b.start = 100.0;
  a.client_id = 1;
  b.client_id = 2;
  EXPECT_TRUE(device::session_order(a, b));
  EXPECT_FALSE(device::session_order(b, a));
  b.client_id = 1;
  a.end = 150.0;
  b.end = 160.0;
  EXPECT_TRUE(device::session_order(a, b));
  EXPECT_FALSE(device::session_order(b, a));
}

TEST(SessionGenerator, GeneratedLogIsStrictlySessionOrdered) {
  // Strictly: adjacent sessions must never be equivalent under the order,
  // otherwise different std::sort implementations could emit different
  // permutations of the same log.
  auto catalog = device::DeviceCatalog::standard();
  util::Rng rng(7);
  auto log = device::generate_sessions(small_config(), catalog, rng);
  for (std::size_t i = 1; i < log.sessions.size(); ++i) {
    EXPECT_TRUE(device::session_order(log.sessions[i - 1], log.sessions[i]))
        << "tie or inversion at index " << i;
  }
}

// -------------------------------------------------------- golden trace hash

std::uint64_t fnv1a_session_hash(const std::vector<device::Session>& sessions) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& s : sessions) {
    std::uint64_t client = s.client_id;
    std::uint64_t device = s.device_index;
    mix(&client, 8);
    mix(&device, 8);
    mix(&s.start, 8);
    mix(&s.end, 8);
    mix(&s.battery_pct, 8);
    unsigned char flags = static_cast<unsigned char>((s.wifi ? 1 : 0) | (s.foreground ? 2 : 0));
    mix(&flags, 1);
  }
  return h;
}

TEST(SessionGenerator, FixedSeedTraceMatchesGoldenHash) {
  // Any change to the generator's numerics — wrap semantics, the portable
  // Poisson/lognormal draws, the sort order — changes this hash. Bump the
  // constant ONLY for an intentional trace-format change, and say so in the
  // commit message: it invalidates every checked-in bench baseline.
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 64;
  cfg.days = 2;
  util::Rng rng(4242);
  auto log = device::generate_sessions(cfg, catalog, rng);
  EXPECT_EQ(fnv1a_session_hash(log.sessions), 0x634d9c323bc08179ull);
}

// ------------------------------------- streaming == materialized, both paths

TEST(SessionStream, InMemoryStreamMatchesMaterializedLog) {
  auto catalog = device::DeviceCatalog::standard();
  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  ASSERT_LE(cfg.generator.clients, cfg.clients_per_chunk);  // in-memory path

  util::Rng rng_a(55);
  util::Rng rng_b(55);
  auto log = device::generate_sessions(cfg.generator, catalog, rng_a);
  auto stream = device::make_session_stream(cfg, catalog, rng_b);
  EXPECT_EQ(stream->clients(), cfg.generator.clients);
  EXPECT_EQ(stream->horizon(), cfg.generator.days * device::kSecondsPerDay);

  std::size_t i = 0;
  while (auto s = stream->next()) {
    ASSERT_LT(i, log.sessions.size());
    expect_session_eq(*s, log.sessions[i]);
    ++i;
  }
  EXPECT_EQ(i, log.sessions.size());
  EXPECT_FALSE(stream->next().has_value());  // stays exhausted
}

TEST(SessionStream, SpilledStreamMatchesMaterializedLog) {
  // Spilled through 7 chunks (400 clients / 64) and merged under a budget
  // small enough for tens of batches, with the default timezone mix and with
  // a negative offset whose evening sessions wrap to the end of the horizon.
  auto catalog = device::DeviceCatalog::standard();
  for (double tz : {0.0, -8.0}) {
    device::SessionStreamConfig cfg;
    cfg.generator = small_config();
    if (tz != 0.0) {
      cfg.generator.timezone_offsets_h = {tz};
      cfg.generator.timezone_weights = {1.0};
    }
    cfg.clients_per_chunk = 64;
    cfg.read_buffer_sessions = 128;

    util::Rng rng_a(56);
    util::Rng rng_b(56);
    auto log = device::generate_sessions(cfg.generator, catalog, rng_a);
    auto stream = device::make_session_stream(cfg, catalog, rng_b);

    // No batch exceeds max(budget, largest fine bucket), so this many
    // sessions take at least ten batches.
    const double horizon = cfg.generator.days * device::kSecondsPerDay;
    const std::size_t buckets = device::spill_buckets(horizon);
    std::vector<std::size_t> per_bucket(buckets, 0);
    for (const auto& s : log.sessions) ++per_bucket[device::spill_bucket(s.start, buckets)];
    const std::size_t largest = *std::max_element(per_bucket.begin(), per_bucket.end());
    ASSERT_GE(log.sessions.size(), 10 * std::max(largest, cfg.read_buffer_sessions)) << "tz " << tz;
    if (tz < 0.0) {  // the wrap really lands sessions in the horizon's last hour
      ASSERT_GT(log.sessions.back().start, horizon - device::kSecondsPerHour);
    }

    std::size_t i = 0;
    while (auto s = stream->next()) {
      ASSERT_LT(i, log.sessions.size()) << "tz " << tz;
      expect_session_eq(*s, log.sessions[i]);
      ++i;
    }
    EXPECT_EQ(i, log.sessions.size()) << "tz " << tz;
    EXPECT_FALSE(stream->next().has_value());  // stays exhausted
  }
}

// ------------------------------------------------- spill merge, hand-built

device::Session at(std::uint64_t client, double start, double end) {
  device::Session s;
  s.client_id = client;
  s.device_index = client % 5;
  s.start = start;
  s.end = end;
  s.wifi = client % 2 == 0;
  s.battery_pct = static_cast<double>(client);
  return s;
}

TEST(SpilledSessionMerge, BucketBoundariesAndBudgetsKeepSessionOrder) {
  // Sessions exactly on fine-bucket boundaries and one ulp either side, at
  // 0 and just below the horizon, ties on start broken by client and by end,
  // and one bucket (at 120 s) larger than the small budgets: spread over
  // three chunks in no particular order, the merge must reproduce a full
  // sort, and no batch may hold more than max(budget, largest bucket).
  const double horizon = 2 * device::kSecondsPerDay;
  const double w = device::kSpillBucketSeconds;
  std::vector<device::Session> all = {
      at(1, 0.0, 10.0),
      at(2, 0.0, 5.0),
      at(2, 0.0, 4.0),
      at(3, w, w + 1),
      at(4, std::nextafter(w, 0.0), w + 1),
      at(5, std::nextafter(w, 2 * w), w + 2),
      at(9, 2 * w, 2 * w + 9),
      at(8, 2 * w, 2 * w + 9),
      at(7, 2 * w, 2 * w + 9),
      at(6, 2 * w, 2 * w + 9),
      at(10, 2 * w, 2 * w + 8),
      at(11, 1000 * w, 1000 * w + 30),
      at(12, std::nextafter(1001 * w, 0.0), 1001 * w + 30),
      at(13, horizon - w, horizon),
      at(14, std::nextafter(horizon, 0.0), horizon),
      at(15, horizon - 0.5, horizon),
  };
  const std::size_t buckets = device::spill_buckets(horizon);
  ASSERT_EQ(device::spill_bucket(std::nextafter(w, 0.0), buckets), 0u);
  ASSERT_EQ(device::spill_bucket(w, buckets), 1u);
  ASSERT_EQ(device::spill_bucket(std::nextafter(horizon, 0.0), buckets), buckets - 1);
  std::vector<std::size_t> per_bucket(buckets, 0);
  for (const auto& s : all) ++per_bucket[device::spill_bucket(s.start, buckets)];
  const std::size_t largest = *std::max_element(per_bucket.begin(), per_bucket.end());
  ASSERT_EQ(largest, 5u);

  auto dir = fs::temp_directory_path() / "flint_spill_merge_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::uint64_t> totals(buckets, 0);
  std::vector<std::string> paths;
  for (std::size_t chunk = 0; chunk < 3; ++chunk) {
    std::vector<device::Session> part;
    for (std::size_t i = all.size(); i-- > 0;)  // reversed, so input order is not start order
      if (i % 3 == chunk) part.push_back(all[i]);
    paths.push_back((dir / ("chunk-" + std::to_string(chunk) + ".bin")).string());
    device::write_session_chunk(paths.back(), part, totals);
  }

  std::vector<device::Session> expect = all;
  std::sort(expect.begin(), expect.end(), device::session_order);
  for (std::size_t budget : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
                             std::size_t{1000}}) {
    device::SpilledSessionMerge merge(paths, totals, budget);
    std::size_t i = 0;
    while (auto s = merge.next()) {
      ASSERT_LT(i, expect.size()) << "budget " << budget;
      expect_session_eq(*s, expect[i]);
      ++i;
    }
    EXPECT_EQ(i, expect.size()) << "budget " << budget;
    EXPECT_FALSE(merge.next().has_value());
    EXPECT_LE(merge.peak_batch_sessions(), std::max(budget, largest)) << "budget " << budget;
    if (budget >= all.size()) {
      EXPECT_EQ(merge.batches(), 1u);
    }
    if (budget <= 1) {
      EXPECT_EQ(merge.batches(), 5u);  // one per non-empty bucket
    }
  }

  // Chunks whose bucket count disagrees with the totals cannot be merged.
  EXPECT_THROW(device::SpilledSessionMerge(paths, std::vector<std::uint64_t>(buckets + 1, 0), 8),
               util::CheckError);
  // Totals that disagree with the chunks' contents are caught per batch.
  std::vector<std::uint64_t> wrong = totals;
  ++wrong[0];
  device::SpilledSessionMerge bad(paths, wrong, 1000);
  EXPECT_THROW(bad.next(), util::CheckError);
  fs::remove_all(dir);
}

TEST(SessionStream, SpillDirectoryIsRemovedOnDestruction) {
  // Destroyed part-way through a batch, several batches in: the chunk files
  // still open for reading must not keep the directory alive.
  auto base = fs::temp_directory_path() / "flint_session_stream_test";
  fs::remove_all(base);
  fs::create_directories(base);
  {
    auto catalog = device::DeviceCatalog::standard();
    device::SessionStreamConfig cfg;
    cfg.generator = small_config();
    cfg.clients_per_chunk = 64;
    cfg.read_buffer_sessions = 64;
    cfg.spill_dir = base.string();
    util::Rng rng(57);
    auto stream = device::make_session_stream(cfg, catalog, rng);
    for (int i = 0; i < 300; ++i) ASSERT_TRUE(stream->next().has_value());
    EXPECT_FALSE(fs::is_empty(base));  // chunks exist while streaming
  }
  EXPECT_TRUE(fs::is_empty(base));
  fs::remove_all(base);
}

// ------------------------------------------- streamed availability windows

TEST(SessionWindowStream, MatchesBuildAvailabilityOrder) {
  auto catalog = device::DeviceCatalog::standard();
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_battery_pct = 50.0;
  criteria.min_session_s = 120.0;

  util::Rng rng_a(58);
  util::Rng rng_b(58);
  auto log = device::generate_sessions(small_config(), catalog, rng_a);
  auto trace = device::build_availability(log, criteria, catalog);

  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  auto sessions = device::make_session_stream(cfg, catalog, rng_b);
  device::SessionWindowStream streamed(*sessions, criteria, catalog);

  std::size_t i = 0;
  while (auto w = streamed.next()) {
    ASSERT_LT(i, trace.windows().size());
    const auto& expect = trace.windows()[i];
    EXPECT_EQ(w->client_id, expect.client_id);
    EXPECT_EQ(w->device_index, expect.device_index);
    EXPECT_EQ(w->start, expect.start);
    EXPECT_EQ(w->end, expect.end);
    ++i;
  }
  EXPECT_EQ(i, trace.windows().size());
}

TEST(WindowOrder, BreaksTiesByClientThenEnd) {
  device::AvailabilityWindow a, b;
  a.start = b.start = 10.0;
  a.client_id = 3;
  b.client_id = 4;
  EXPECT_TRUE(device::window_order(a, b));
  b.client_id = 3;
  a.end = 20.0;
  b.end = 30.0;
  EXPECT_TRUE(device::window_order(a, b));
  EXPECT_FALSE(device::window_order(b, a));
}

// ------------------------------------------------- device of an unread client

TEST(SessionStream, DeviceOfIsTheSubstreamsFirstDraw) {
  // A resumed run labels restored clients from device_of() before (or
  // without) pulling their sessions; both stream paths must agree with the
  // device generate_sessions recorded, and a trace with the trace's CSR view.
  auto catalog = device::DeviceCatalog::standard();
  device::AvailabilityCriteria criteria;
  util::Rng rng_log(61);
  auto log = device::generate_sessions(small_config(), catalog, rng_log);
  auto trace = device::build_availability(log, criteria, catalog);
  device::TraceWindowStream trace_windows(trace);

  for (std::size_t per_chunk : {std::size_t{8192}, std::size_t{64}}) {
    SCOPED_TRACE(per_chunk);
    device::SessionStreamConfig cfg;
    cfg.generator = small_config();
    cfg.clients_per_chunk = per_chunk;
    util::Rng rng(61);
    auto sessions = device::make_session_stream(cfg, catalog, rng);
    device::SessionWindowStream windows(*sessions, criteria, catalog);
    for (std::uint64_t c = 0; c < log.client_device.size(); ++c) {
      EXPECT_EQ(windows.device_of(c), std::optional<std::size_t>(log.client_device[c]));
      if (trace.device_of(c).has_value()) {
        EXPECT_EQ(trace_windows.device_of(c), windows.device_of(c));
      }
    }
    EXPECT_FALSE(windows.device_of(log.client_device.size()).has_value());
  }
}

// ----------------------------------- scheduler over a stream == over a trace

TEST(ArrivalScheduler, StreamBackedSchedulerMatchesTraceBacked) {
  auto catalog = device::DeviceCatalog::standard();
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;

  util::Rng rng_a(59);
  util::Rng rng_b(59);
  auto log = device::generate_sessions(small_config(), catalog, rng_a);
  auto trace = device::build_availability(log, criteria, catalog);

  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  cfg.clients_per_chunk = 64;  // spilled, to cover the interesting path
  auto sessions = device::make_session_stream(cfg, catalog, rng_b);
  device::SessionWindowStream windows(*sessions, criteria, catalog);

  device::TraceWindowStream trace_windows(trace);
  sim::ArrivalScheduler from_trace(trace_windows);
  sim::ArrivalScheduler from_stream(windows);
  sim::VirtualTime t = 0.0;
  while (true) {
    auto a = from_trace.next(t);
    auto b = from_stream.next(t);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->client_id, b->client_id);
    EXPECT_EQ(a->device_index, b->device_index);
    EXPECT_EQ(a->time, b->time);
    EXPECT_EQ(a->window_end, b->window_end);
    t = a->time;
  }
}

}  // namespace
}  // namespace flint
