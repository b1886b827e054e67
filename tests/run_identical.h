// Exact-equality comparison of two RunResults: the shared machinery behind
// the thread-count determinism tests (DESIGN.md §11) and the crash-resume
// tests (§12). The contract in both cases is bit-identical, not "close", so
// every comparison here is EXPECT_EQ — never a tolerance.
#pragma once

#include <gtest/gtest.h>

#include "flint/fl/run_common.h"

namespace flint::test {

inline void expect_identical_rollup(const obs::LedgerRollup& a, const obs::LedgerRollup& b) {
  SCOPED_TRACE(a.key);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.clients, b.clients);
  EXPECT_EQ(a.tasks_succeeded, b.tasks_succeeded);
  EXPECT_EQ(a.tasks_interrupted, b.tasks_interrupted);
  EXPECT_EQ(a.tasks_stale, b.tasks_stale);
  EXPECT_EQ(a.tasks_failed, b.tasks_failed);
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.wasted_compute_s, b.wasted_compute_s);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
  EXPECT_EQ(a.bytes_up, b.bytes_up);
}

inline void expect_identical_rollups(const std::vector<obs::LedgerRollup>& a,
                                     const std::vector<obs::LedgerRollup>& b, const char* axis) {
  SCOPED_TRACE(axis);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical_rollup(a[i], b[i]);
}

inline void expect_identical_runs(const fl::RunResult& a, const fl::RunResult& b,
                                  const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.final_parameters.size(), b.final_parameters.size());
  for (std::size_t i = 0; i < a.final_parameters.size(); ++i)
    ASSERT_EQ(a.final_parameters[i], b.final_parameters[i]) << "parameter " << i;
  EXPECT_EQ(a.final_metric, b.final_metric);
  EXPECT_EQ(a.virtual_duration_s, b.virtual_duration_s);
  EXPECT_EQ(a.rounds, b.rounds);

  ASSERT_EQ(a.eval_curve.size(), b.eval_curve.size());
  for (std::size_t i = 0; i < a.eval_curve.size(); ++i) {
    EXPECT_EQ(a.eval_curve[i].time, b.eval_curve[i].time);
    EXPECT_EQ(a.eval_curve[i].round, b.eval_curve[i].round);
    EXPECT_EQ(a.eval_curve[i].metric, b.eval_curve[i].metric);
    EXPECT_EQ(a.eval_curve[i].train_loss, b.eval_curve[i].train_loss);
  }

  EXPECT_EQ(a.metrics.tasks_started(), b.metrics.tasks_started());
  EXPECT_EQ(a.metrics.tasks_succeeded(), b.metrics.tasks_succeeded());
  EXPECT_EQ(a.metrics.tasks_interrupted(), b.metrics.tasks_interrupted());
  EXPECT_EQ(a.metrics.tasks_stale(), b.metrics.tasks_stale());
  EXPECT_EQ(a.metrics.tasks_failed(), b.metrics.tasks_failed());
  EXPECT_EQ(a.metrics.client_compute_s(), b.metrics.client_compute_s());
  EXPECT_EQ(a.metrics.updates_aggregated(), b.metrics.updates_aggregated());
  ASSERT_EQ(a.metrics.rounds().size(), b.metrics.rounds().size());
  for (std::size_t i = 0; i < a.metrics.rounds().size(); ++i) {
    EXPECT_EQ(a.metrics.rounds()[i].start, b.metrics.rounds()[i].start);
    EXPECT_EQ(a.metrics.rounds()[i].end, b.metrics.rounds()[i].end);
    EXPECT_EQ(a.metrics.rounds()[i].updates_aggregated,
              b.metrics.rounds()[i].updates_aggregated);
    EXPECT_EQ(a.metrics.rounds()[i].mean_staleness, b.metrics.rounds()[i].mean_staleness);
  }
  // Checkpoint-write records are part of the run timeline, so a resumed run
  // must reproduce them too — including the one the restored checkpoint
  // recorded about itself.
  ASSERT_EQ(a.metrics.checkpoints().size(), b.metrics.checkpoints().size());
  for (std::size_t i = 0; i < a.metrics.checkpoints().size(); ++i) {
    EXPECT_EQ(a.metrics.checkpoints()[i].round, b.metrics.checkpoints()[i].round);
    EXPECT_EQ(a.metrics.checkpoints()[i].time, b.metrics.checkpoints()[i].time);
  }

  // Attribution: every ledger row, labels included — a resumed or re-threaded
  // run must book each client under the same tier, cohort and executor.
  expect_identical_rollups(a.ledger.by_tier, b.ledger.by_tier, "by_tier");
  expect_identical_rollups(a.ledger.by_cohort, b.ledger.by_cohort, "by_cohort");
  expect_identical_rollups(a.ledger.by_executor, b.ledger.by_executor, "by_executor");
  expect_identical_rollup(a.ledger.totals, b.ledger.totals);
}

}  // namespace flint::test
