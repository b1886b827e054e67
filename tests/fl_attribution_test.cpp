// Per-client attribution (DESIGN.md §17): every run reads arrivals through
// one WindowStream, and the ledger labels each client from what the run
// knows — tier from the device of its arrivals, executor from the pool, and
// availability cohort only when the run holds the whole trace. Where a label
// cannot be known it is "unclassified", never a default bucket.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "flint/device/session_stream.h"
#include "flint/fl/fedbuff.h"
#include "flint/store/checkpoint.h"
#include "run_identical.h"
#include "test_helpers.h"

namespace flint::fl {
namespace {

device::SessionStreamConfig stream_config(std::size_t clients_per_chunk) {
  device::SessionStreamConfig cfg;
  cfg.generator.clients = 600;
  cfg.generator.days = 2;
  cfg.clients_per_chunk = clients_per_chunk;
  cfg.spill_dir = ::testing::TempDir();
  return cfg;
}

device::AvailabilityCriteria wifi_only() {
  device::AvailabilityCriteria c;
  c.require_wifi = true;
  c.min_session_s = 60.0;
  return c;
}

/// Model-free FedBuff over whichever arrival source the caller sets.
AsyncConfig model_free_config(const device::DeviceCatalog& catalog,
                              const net::BandwidthModel& bandwidth) {
  AsyncConfig cfg;
  cfg.inputs.model_free = true;
  cfg.inputs.example_count_fn = [](std::uint64_t c) { return std::size_t{50} + c % 100; };
  cfg.inputs.catalog = &catalog;
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.duration.base_time_per_example_s = 0.02;
  cfg.inputs.duration.update_bytes = 1'000'000;
  cfg.inputs.reparticipation_gap_s = 6.0 * 3600.0;
  cfg.inputs.max_rounds = 12;
  cfg.inputs.seed = 21;
  cfg.buffer_size = 16;
  cfg.max_concurrency = 64;
  cfg.max_staleness = 100;
  return cfg;
}

std::size_t rows_with_clients(const std::vector<obs::LedgerRollup>& rows) {
  std::size_t n = 0;
  for (const auto& r : rows) n += r.clients > 0 ? 1 : 0;
  return n;
}

TEST(Attribution, TraceAndTraceStreamBookTheSameTiersAndExecutors) {
  auto catalog = device::DeviceCatalog::standard();
  const device::AvailabilityCriteria criteria = wifi_only();
  net::FixedBandwidthModel bw(10.0);
  util::Rng rng(33);
  auto log = device::generate_sessions(stream_config(8192).generator, catalog, rng);
  auto trace = device::build_availability(log, criteria, catalog);

  AsyncConfig given_trace = model_free_config(catalog, bw);
  given_trace.inputs.trace = &trace;
  RunResult a = run_fedbuff(given_trace);

  device::TraceWindowStream windows(trace);
  AsyncConfig given_stream = model_free_config(catalog, bw);
  given_stream.inputs.window_stream = &windows;
  RunResult b = run_fedbuff(given_stream);

  ASSERT_GT(a.ledger.totals.clients, 0u);
  EXPECT_GE(rows_with_clients(a.ledger.by_tier), 2u);
  test::expect_identical_rollups(a.ledger.by_tier, b.ledger.by_tier, "by_tier");
  test::expect_identical_rollups(a.ledger.by_executor, b.ledger.by_executor, "by_executor");
  test::expect_identical_rollup(a.ledger.totals, b.ledger.totals);

  // Only the run holding the whole trace can tell cohorts apart.
  for (const auto& row : a.ledger.by_cohort) EXPECT_NE(row.key, "unclassified");
  ASSERT_FALSE(b.ledger.by_cohort.empty());
  EXPECT_EQ(b.ledger.by_cohort.back().key, "unclassified");
  EXPECT_EQ(b.ledger.by_cohort.back().clients, b.ledger.totals.clients);
}

TEST(Attribution, SessionStreamRunLabelsTiersAndExecutors) {
  auto catalog = device::DeviceCatalog::standard();
  const device::AvailabilityCriteria criteria = wifi_only();
  net::FixedBandwidthModel bw(10.0);
  util::Rng rng(33);
  auto sessions = device::make_session_stream(stream_config(128), catalog, rng);
  device::SessionWindowStream windows(*sessions, criteria, catalog);
  AsyncConfig cfg = model_free_config(catalog, bw);
  cfg.inputs.window_stream = &windows;
  RunResult r = run_fedbuff(cfg);

  ASSERT_GT(r.ledger.totals.clients, 0u);
  EXPECT_GE(rows_with_clients(r.ledger.by_tier), 2u);
  EXPECT_GE(rows_with_clients(r.ledger.by_executor), 2u);
  for (const auto& row : r.ledger.by_tier) EXPECT_NE(row.key, "unclassified");
  std::uint64_t cohort_clients = 0;
  for (const auto& row : r.ledger.by_cohort) {
    if (row.key == "unclassified") {
      EXPECT_EQ(row.clients, r.ledger.totals.clients);
    } else {
      EXPECT_EQ(row.clients, 0u) << row.key;
    }
    cohort_clients += row.clients;
  }
  EXPECT_EQ(cohort_clients, r.ledger.totals.clients);
  // Per-client labels, on the clients the summary lists individually.
  ASSERT_FALSE(r.ledger.stragglers.empty());
  for (const auto& e : r.ledger.stragglers) {
    auto device = sessions->device_of(e.client_id);
    ASSERT_TRUE(device.has_value());
    EXPECT_EQ(e.tier, static_cast<std::uint32_t>(device::tier_of(catalog.profile(*device))));
    EXPECT_EQ(e.cohort, obs::ClientLedger::kUnclassified);
    EXPECT_EQ(e.executor, e.client_id % 20);
  }
}

TEST(Attribution, EveryDispatchedClientGetsItsDevicesTier) {
  // The scope on its own over a session stream: dispatch and finish one task
  // per pulled window, then every client must sit in its device's tier row.
  auto catalog = device::DeviceCatalog::standard();
  const device::AvailabilityCriteria criteria = wifi_only();
  net::FixedBandwidthModel bw(10.0);
  util::Rng rng(35);
  auto sessions = device::make_session_stream(stream_config(8192), catalog, rng);
  device::SessionWindowStream windows(*sessions, criteria, catalog);
  AsyncConfig cfg = model_free_config(catalog, bw);
  cfg.inputs.window_stream = &windows;
  sim::Leader leader(cfg.inputs.leader, windows);
  RunAttributionScope scope(cfg.inputs, leader, windows);

  std::vector<std::uint64_t> expected_tier_clients(3, 0);
  std::set<std::uint64_t> seen;
  std::uint64_t task_id = 0;
  for (int i = 0; i < 2000; ++i) {
    auto w = windows.next();
    if (!w.has_value()) break;
    scope.on_dispatch(w->client_id, w->device_index);
    leader.metrics().on_task_started();
    sim::TaskResult tr;
    tr.spec.task_id = task_id++;
    tr.spec.client_id = w->client_id;
    tr.spec.device_index = w->device_index;
    tr.outcome = sim::TaskOutcome::kSucceeded;
    leader.metrics().on_task_finished(tr);
    if (seen.insert(w->client_id).second)
      ++expected_tier_clients[static_cast<std::size_t>(
          device::tier_of(catalog.profile(w->device_index)))];
  }
  RunResult result;
  scope.finish(result);
  ASSERT_EQ(result.ledger.by_tier.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t)
    EXPECT_EQ(result.ledger.by_tier[t].clients, expected_tier_clients[t]) << t;
  EXPECT_EQ(result.ledger.totals.clients, seen.size());
}

TEST(Attribution, SessionStreamFedBuffResumesWithTheSameLabels) {
  // A resumed run replays the stream to the checkpoint cursor and labels the
  // restored clients from device_of(), including those that never arrive
  // again; every ledger row must match the uninterrupted run.
  auto catalog = device::DeviceCatalog::standard();
  const device::AvailabilityCriteria criteria = wifi_only();
  net::FixedBandwidthModel bw(10.0);
  auto run = [&](std::uint64_t max_rounds, store::CheckpointStore* store,
                 store::CheckpointStore* resume_from) {
    util::Rng rng(37);
    auto sessions = device::make_session_stream(stream_config(128), catalog, rng);
    device::SessionWindowStream windows(*sessions, criteria, catalog);
    AsyncConfig cfg = model_free_config(catalog, bw);
    cfg.inputs.window_stream = &windows;
    cfg.inputs.max_rounds = max_rounds;
    cfg.inputs.leader.checkpoint_every_rounds = 3;
    cfg.inputs.leader.checkpoint_store = store;
    cfg.inputs.resume_from = resume_from;
    return run_fedbuff(cfg);
  };
  auto dir = [](const std::string& name) {
    auto path = std::filesystem::path(::testing::TempDir()) / ("fl_attribution_" + name);
    std::filesystem::remove_all(path);
    return path.string();
  };
  store::CheckpointStore ref_store(dir("ref"));
  store::CheckpointStore crash_store(dir("crash"));

  RunResult reference = run(12, &ref_store, nullptr);
  RunResult crashed = run(7, &crash_store, nullptr);
  ASSERT_EQ(crashed.rounds, 7u);
  RunResult resumed = run(12, &crash_store, &crash_store);
  EXPECT_EQ(resumed.resumed_from_round, 6u);
  EXPECT_GE(rows_with_clients(reference.ledger.by_tier), 2u);
  test::expect_identical_runs(reference, resumed, "session-stream fedbuff");
}

}  // namespace
}  // namespace flint::fl
