// Coherence of the SearchStats instrumentation across the searchers: the
// counters feed the paper's R_d / R_p analyses and the benches, so they
// must obey basic accounting identities.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"

namespace tswarp::core {
namespace {

seqdb::SequenceDatabase Db() {
  datagen::StockOptions options;
  options.num_sequences = 20;
  options.avg_length = 60;
  options.seed = 77;
  return datagen::GenerateStocks(options);
}

std::vector<Value> Query(const seqdb::SequenceDatabase& db) {
  return std::vector<Value>(db.sequence(3).begin() + 10,
                            db.sequence(3).begin() + 18);
}

TEST(SearchStatsTest, TreeSearchAccountingIdentities) {
  const seqdb::SequenceDatabase db = Db();
  for (IndexKind kind : {IndexKind::kSuffixTree, IndexKind::kCategorized,
                         IndexKind::kSparse}) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = 12;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    SearchStats stats;
    const auto matches = index->Search(Query(db), 6.0, {}, &stats);
    SCOPED_TRACE(IndexKindToString(kind));
    // Every answer was a candidate; rejected candidates were either
    // endpoint-screened or failed the exact computation.
    EXPECT_GE(stats.candidates, matches.size());
    EXPECT_EQ(stats.answers, matches.size());
    EXPECT_LE(stats.endpoint_rejections, stats.candidates);
    if (kind != IndexKind::kSuffixTree) {
      EXPECT_LE(stats.exact_dtw_calls + stats.endpoint_rejections,
                stats.candidates);
    }
    // Rows/cells relation: every pushed row computes |Q| cells.
    EXPECT_EQ(stats.cells_computed, stats.rows_pushed * 8);
    // Each row serves at least one stored suffix.
    EXPECT_GE(stats.unshared_rows, stats.rows_pushed);
    EXPECT_GT(stats.nodes_visited, 0u);
  }
}

TEST(SearchStatsTest, EndpointScreenFiresOnLowerBoundModes) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 4;  // Loose bounds -> many candidates.
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  SearchStats stats;
  index->Search(Query(db), 3.0, {}, &stats);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_GT(stats.endpoint_rejections, 0u)
      << "with 4 categories and a tight epsilon the O(1) screen should "
         "reject many candidates";
}

TEST(SearchStatsTest, SeqScanAccountingIdentities) {
  const seqdb::SequenceDatabase db = Db();
  SearchStats stats;
  const auto q = Query(db);
  const auto matches = SeqScan(db, q, 5.0, {}, &stats);
  EXPECT_EQ(stats.answers, matches.size());
  EXPECT_EQ(stats.cells_computed, stats.rows_pushed * q.size());
  // Every suffix either pushes at least one row or is cut by the running
  // envelope bound before its first row; the cascade runs once per suffix.
  EXPECT_GE(stats.rows_pushed + stats.lb_pruned, db.TotalElements());
  EXPECT_EQ(stats.lb_invocations, db.TotalElements());

  // Without the cascade every suffix builds at least one row, and the
  // match set is unchanged.
  SeqScanOptions no_lb;
  no_lb.use_lower_bound = false;
  SearchStats plain;
  const auto unfiltered = SeqScan(db, q, 5.0, no_lb, &plain);
  EXPECT_GE(plain.rows_pushed, db.TotalElements());
  EXPECT_EQ(plain.lb_invocations, 0u);
  EXPECT_EQ(plain.lb_pruned, 0u);
  EXPECT_EQ(unfiltered.size(), matches.size());
}

TEST(SearchStatsTest, LowerBoundCascadeCountsOnTreeSearch) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 4;  // Loose filter -> many candidates to screen.
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  SearchStats stats;
  index->Search(Query(db), 3.0, {}, &stats);
  // Everything surviving the endpoint screen is screened by the envelope
  // cascade; exact DTW only runs on what the cascade admits.
  EXPECT_EQ(stats.lb_invocations,
            stats.candidates - stats.endpoint_rejections);
  EXPECT_EQ(stats.exact_dtw_calls, stats.lb_invocations - stats.lb_pruned);
  EXPECT_GT(stats.lb_pruned, 0u)
      << "with 4 categories and a tight epsilon the envelope bound should "
         "kill candidates the endpoint screen admits";

  QueryOptions no_lb;
  no_lb.use_lower_bound = false;
  SearchStats plain;
  index->Search(Query(db), 3.0, no_lb, &plain);
  EXPECT_EQ(plain.lb_invocations, 0u);
  EXPECT_EQ(plain.lb_pruned, 0u);
  EXPECT_GE(plain.exact_dtw_calls, stats.exact_dtw_calls);
}

TEST(SearchStatsTest, SchedulerCountersTrackParallelExecution) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 12;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());

  SearchStats serial;
  index->Search(Query(db), 6.0, {}, &serial);
  EXPECT_EQ(serial.tasks_executed, 0u);
  EXPECT_EQ(serial.tasks_stolen, 0u);
  EXPECT_EQ(serial.steal_attempts, 0u);
  EXPECT_EQ(serial.replayed_rows, 0u);

  QueryOptions parallel;
  parallel.num_threads = 4;
  SearchStats par;
  index->Search(Query(db), 6.0, parallel, &par);
  // At least the root task ran. Whether it counts as stolen depends on
  // who took it: a pool worker (stolen) or the waiting submitter helping
  // itself (not) — timing-dependent, so only the bound is asserted.
  EXPECT_GE(par.tasks_executed, 1u);
  EXPECT_LE(par.tasks_stolen, par.tasks_executed);
  // Replay happens only when a task actually split off a non-root branch;
  // either way the cells identity covers the replayed rows.
  EXPECT_EQ(par.cells_computed,
            (par.rows_pushed + par.replayed_rows) * Query(db).size());

  // Merge sums the scheduler counters like every other field.
  SearchStats merged = serial;
  merged.Merge(par);
  EXPECT_EQ(merged.tasks_executed, par.tasks_executed);
  EXPECT_EQ(merged.tasks_stolen, par.tasks_stolen);
  EXPECT_EQ(merged.steal_attempts, par.steal_attempts);
}

TEST(SearchStatsTest, SearchOverwritesStatsInsteadOfAdding) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 12;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> first = Query(db);
  const std::vector<Value> second(db.sequence(7).begin() + 5,
                                  db.sequence(7).begin() + 15);

  SearchStats alone;
  index->Search(second, 6.0, {}, &alone);
  ASSERT_GT(alone.rows_pushed, 0u);
  SearchStats reused;
  index->Search(first, 6.0, {}, &reused);
  index->Search(second, 6.0, {}, &reused);
  EXPECT_TRUE(reused == alone);

  SearchStats knn_alone;
  index->SearchKnn(second, 3, {}, &knn_alone);
  SearchStats knn_reused;
  index->SearchKnn(first, 3, {}, &knn_reused);
  index->SearchKnn(second, 3, {}, &knn_reused);
  EXPECT_TRUE(knn_reused == knn_alone);
}

TEST(SearchStatsTest, RdGrowsWithCoarserCategories) {
  const seqdb::SequenceDatabase db = Db();
  const auto q = Query(db);
  double prev_rd = 1e18;
  for (std::size_t c : {4u, 16u, 64u}) {
    IndexOptions options;
    options.kind = IndexKind::kSparse;
    options.num_categories = c;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    SearchStats stats;
    index->Search(q, 8.0, {}, &stats);
    const double rd = static_cast<double>(stats.unshared_rows) /
                      static_cast<double>(stats.rows_pushed);
    EXPECT_GE(rd, 1.0);
    // Coarser categories share longer prefixes: R_d should not increase
    // as categories get finer (allow slack for pruning interactions).
    EXPECT_LE(rd, prev_rd * 1.5) << "c=" << c;
    prev_rd = rd;
  }
}

}  // namespace
}  // namespace tswarp::core
