#include "multivariate/multi_index.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dtw/dtw.h"
#include "multivariate/grid_alphabet.h"
#include "multivariate/multi_dtw.h"
#include "test_util.h"

namespace tswarp::mv {
namespace {

MultiSequenceDatabase RandomMultiDb(std::uint64_t seed, std::size_t dim,
                                    std::size_t num_seqs,
                                    std::size_t max_len) {
  Rng rng(seed);
  MultiSequenceDatabase db(dim);
  for (std::size_t i = 0; i < num_seqs; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.UniformInt(2, static_cast<int>(max_len)));
    std::vector<Value> flat;
    std::vector<Value> cur(dim);
    for (std::size_t d = 0; d < dim; ++d) cur[d] = rng.Uniform(0, 50);
    for (std::size_t p = 0; p < len; ++p) {
      for (std::size_t d = 0; d < dim; ++d) {
        cur[d] += rng.Gaussian(0, 1);
        flat.push_back(cur[d]);
      }
    }
    db.Add(std::move(flat));
  }
  return db;
}

std::vector<Value> RandomMultiQuery(std::size_t dim, std::size_t len,
                                    Rng* rng) {
  std::vector<Value> q;
  std::vector<Value> cur(dim);
  for (std::size_t d = 0; d < dim; ++d) cur[d] = rng->Uniform(0, 50);
  for (std::size_t p = 0; p < len; ++p) {
    for (std::size_t d = 0; d < dim; ++d) {
      cur[d] += rng->Gaussian(0, 1);
      q.push_back(cur[d]);
    }
  }
  return q;
}

TEST(MultiDtwTest, Dim1MatchesUnivariate) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Value> a, b;
    const auto la = static_cast<std::size_t>(rng.UniformInt(1, 10));
    const auto lb = static_cast<std::size_t>(rng.UniformInt(1, 10));
    for (std::size_t i = 0; i < la; ++i) a.push_back(rng.Uniform(0, 10));
    for (std::size_t i = 0; i < lb; ++i) b.push_back(rng.Uniform(0, 10));
    EXPECT_DOUBLE_EQ(MultiDtwDistance(a, la, b, lb, 1),
                     dtw::DtwDistance(a, b));
  }
}

TEST(MultiDtwTest, IdenticalSequencesHaveZeroDistance) {
  const std::vector<Value> a = {1, 2, 3, 4, 5, 6};  // 3 elements, dim 2.
  EXPECT_DOUBLE_EQ(MultiDtwDistance(a, 3, a, 3, 2), 0.0);
}

TEST(MultiDtwTest, StretchingIsFree) {
  const std::vector<Value> a = {1, 10, 2, 20};          // <(1,10),(2,20)>
  const std::vector<Value> b = {1, 10, 1, 10, 2, 20};   // First element x2.
  EXPECT_DOUBLE_EQ(MultiDtwDistance(a, 2, b, 3, 2), 0.0);
}

TEST(MultiDtwTest, ThresholdedMatchesExact) {
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t dim = static_cast<std::size_t>(rng.UniformInt(1, 3));
    const auto la = static_cast<std::size_t>(rng.UniformInt(1, 8));
    const auto lb = static_cast<std::size_t>(rng.UniformInt(1, 8));
    std::vector<Value> a, b;
    for (std::size_t i = 0; i < la * dim; ++i) a.push_back(rng.Uniform(0, 5));
    for (std::size_t i = 0; i < lb * dim; ++i) b.push_back(rng.Uniform(0, 5));
    const Value exact = MultiDtwDistance(a, la, b, lb, dim);
    const Value eps = rng.Uniform(0, 20);
    Value d = -1;
    const bool within = MultiDtwWithinThreshold(a, la, b, lb, dim, eps, &d);
    EXPECT_EQ(within, exact <= eps);
    if (within) {
      EXPECT_DOUBLE_EQ(d, exact);
    }
  }
}

TEST(GridAlphabetTest, CellsAndIntervals) {
  const MultiSequenceDatabase db = RandomMultiDb(3, 2, 5, 20);
  auto grid = GridAlphabet::Build(db, categorize::Method::kMaxEntropy, 4);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->dim(), 2u);
  EXPECT_LE(grid->NumCells(), 16u);
  // Round trip: each element's cell interval contains the element (after
  // fitting).
  GridAlphabet g = std::move(grid).value();
  ConvertMultiDatabase(db, &g);
  for (SeqId id = 0; id < db.size(); ++id) {
    for (Pos p = 0; p < db.Length(id); ++p) {
      const auto elem = db.Element(id, p);
      const Symbol s = g.ToSymbol(elem);
      EXPECT_DOUBLE_EQ(g.CellLowerBound(elem, s), 0.0)
          << "element must be inside its own (fitted) cell";
    }
  }
}

TEST(GridAlphabetTest, CellLowerBoundIsLowerBound) {
  const MultiSequenceDatabase db = RandomMultiDb(4, 3, 4, 15);
  auto grid_or = GridAlphabet::Build(db, categorize::Method::kEqualLength, 3);
  ASSERT_TRUE(grid_or.ok());
  GridAlphabet grid = std::move(grid_or).value();
  ConvertMultiDatabase(db, &grid);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto id = static_cast<SeqId>(rng.UniformInt(
        0, static_cast<int>(db.size()) - 1));
    const auto pos = static_cast<Pos>(rng.UniformInt(
        0, static_cast<int>(db.Length(id)) - 1));
    const auto member = db.Element(id, pos);
    const Symbol cell = grid.ToSymbol(member);
    // Any probe element: lb(probe, cell) <= base distance to any member.
    std::vector<Value> probe(db.dim());
    for (std::size_t d = 0; d < db.dim(); ++d) {
      probe[d] = rng.Uniform(-10, 60);
    }
    EXPECT_LE(grid.CellLowerBound(probe, cell),
              MultiBaseDistance(probe, member) + 1e-9);
  }
}

class MultiIndexParamTest
    : public testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(MultiIndexParamTest, MatchesMultiSeqScan) {
  const auto [sparse, dim] = GetParam();
  Rng rng(100 + dim);
  for (int round = 0; round < 3; ++round) {
    const MultiSequenceDatabase db =
        RandomMultiDb(10 + static_cast<std::uint64_t>(round), dim, 8, 25);
    MultiIndexOptions options;
    options.sparse = sparse;
    options.categories_per_dim = 4;
    auto index = MultiIndex::Build(&db, options);
    ASSERT_TRUE(index.ok()) << index.status();
    for (int qi = 0; qi < 5; ++qi) {
      const auto qlen = static_cast<std::size_t>(rng.UniformInt(1, 5));
      const std::vector<Value> q = RandomMultiQuery(dim, qlen, &rng);
      const Value eps = rng.Uniform(0, 15);
      testutil::ExpectSameMatches(
          MultiSeqScan(db, q, qlen, eps), index->Search(q, qlen, eps),
          "dim " + std::to_string(dim) + " sparse " +
              std::to_string(sparse));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiIndexParamTest,
    testing::Combine(testing::Bool(), testing::Values(1u, 2u, 3u)),
    [](const testing::TestParamInfo<std::tuple<bool, std::size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "sparse" : "dense") +
             "_dim" + std::to_string(std::get<1>(info.param));
    });

// Suite name matters: the TSan CI job selects concurrency suites with
// -R 'ParallelSearch|MultivariateParallel'.
class MultivariateParallelTest
    : public testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(MultivariateParallelTest, ParallelMatchesSerialByteIdentical) {
  const auto [sparse, dim] = GetParam();
  const MultiSequenceDatabase db =
      RandomMultiDb(40 + static_cast<std::uint64_t>(dim), dim, 8, 25);
  MultiIndexOptions options;
  options.sparse = sparse;
  options.categories_per_dim = 4;
  auto index = MultiIndex::Build(&db, options);
  ASSERT_TRUE(index.ok()) << index.status();
  Rng rng(300 + dim);
  for (int qi = 0; qi < 4; ++qi) {
    const auto qlen = static_cast<std::size_t>(rng.UniformInt(2, 5));
    const std::vector<Value> q = RandomMultiQuery(dim, qlen, &rng);
    const Value eps = rng.Uniform(1, 15);
    core::SearchStats serial_stats;
    const std::vector<core::Match> serial =
        index->Search(q, qlen, eps, {}, &serial_stats);
    const std::vector<core::Match> serial_knn =
        index->SearchKnn(q, qlen, 5);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      core::QueryOptions query_options;
      query_options.num_threads = threads;
      core::SearchStats stats;
      const std::vector<core::Match> parallel =
          index->Search(q, qlen, eps, query_options, &stats);
      ASSERT_EQ(serial.size(), parallel.size()) << "threads " << threads;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].seq, parallel[i].seq);
        EXPECT_EQ(serial[i].start, parallel[i].start);
        EXPECT_EQ(serial[i].len, parallel[i].len);
        EXPECT_EQ(serial[i].distance, parallel[i].distance)
            << "threads " << threads << " at " << i;
      }
      // The emission-side totals are invariant under the decomposition
      // (Theorem 1 guarantees pruned subtrees hold no answers); row
      // counts may only grow, since tasks are split on topology before
      // any distance work and may enter branches serial pruning skipped.
      EXPECT_EQ(stats.answers, serial_stats.answers);
      EXPECT_EQ(stats.candidates, serial_stats.candidates);
      EXPECT_EQ(stats.exact_dtw_calls, serial_stats.exact_dtw_calls);
      EXPECT_GE(stats.rows_pushed, serial_stats.rows_pushed);
      const std::vector<core::Match> parallel_knn =
          index->SearchKnn(q, qlen, 5, query_options);
      ASSERT_EQ(serial_knn.size(), parallel_knn.size());
      for (std::size_t i = 0; i < serial_knn.size(); ++i) {
        EXPECT_EQ(serial_knn[i].seq, parallel_knn[i].seq);
        EXPECT_EQ(serial_knn[i].distance, parallel_knn[i].distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultivariateParallelTest,
    testing::Combine(testing::Bool(), testing::Values(1u, 2u, 3u)),
    [](const testing::TestParamInfo<std::tuple<bool, std::size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "sparse" : "dense") +
             "_dim" + std::to_string(std::get<1>(info.param));
    });

TEST(MultiIndexTest, RejectsEmptyDatabase) {
  MultiSequenceDatabase db(2);
  EXPECT_FALSE(MultiIndex::Build(&db, {}).ok());
  EXPECT_FALSE(MultiIndex::Build(nullptr, {}).ok());
}

TEST(MultiIndexTest, ReportsIndexBytes) {
  const MultiSequenceDatabase db = RandomMultiDb(20, 2, 5, 20);
  auto index = MultiIndex::Build(&db, {});
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->IndexBytes(), 0u);
}

}  // namespace
}  // namespace tswarp::mv
