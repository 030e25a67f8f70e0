// Thread-scaling of the parallel query engine: for each index kind (ST,
// ST_C, SST_C) measures the average query time of the serial searcher
// (num_threads = 0) against intra-query parallel searches and batched
// inter-query fan-out at 1, 2, 4, 8 threads, and reports the speedups.
//
// The workload is the paper's stock data with a generous epsilon so
// post-processing (candidate verification with exact DTW) dominates —
// exactly the part of SimSearch that parallelizes across subtrees and
// candidates. Expected shape on a multi-core machine: near-linear batch
// speedup, >= 2x intra-query speedup at 4 threads; on a single core all
// ratios hover around 1x.
//
// SimSearch-ST is excluded by default: it has no post-processing stage and
// its exact-value tree makes single queries take tens of seconds on the
// paper workload (Table 2 reports 55.3s); pass --st to include it.
//
// With --disk the bench additionally builds one disk-backed SST_C bundle
// and reopens it twice — once with a single-shard (single-mutex) buffer
// pool, once with the sharded pool — and compares multi-thread query
// throughput through each. This isolates the buffer-manager lock from the
// search work: the sharded rows should pull ahead at >= 4 threads.
//
//   scaling_threads [--queries N] [--epsilon E] [--categories C] [--quick]
//                   [--st] [--disk] [--json]
//
// --json writes BENCH_scaling_threads.json (see report_json.h) with the
// raw per-query times, so thread-scaling baselines can be diffed across
// sessions and SIMD backends.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "report_json.h"
#include "core/index.h"

namespace tswarp {
namespace {

using bench::PaperQueries;
using bench::PaperStockDb;
using bench::Timer;
using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::QueryOptions;

double AvgQuerySeconds(const Index& index,
                       const std::vector<seqdb::Sequence>& queries,
                       Value epsilon, std::size_t num_threads) {
  QueryOptions options;
  options.num_threads = num_threads;
  Timer timer;
  for (const seqdb::Sequence& q : queries) {
    const auto matches = index.Search(q, epsilon, options);
    if (matches.size() == static_cast<std::size_t>(-1)) std::abort();
  }
  return timer.Seconds() / static_cast<double>(queries.size());
}

double BatchSeconds(const Index& index,
                    const std::vector<seqdb::Sequence>& queries,
                    Value epsilon, std::size_t num_threads) {
  std::vector<std::vector<Value>> batch(queries.begin(), queries.end());
  QueryOptions options;
  options.num_threads = num_threads;
  Timer timer;
  const auto results = index.SearchBatch(batch, {epsilon}, options);
  if (results.size() != batch.size()) std::abort();
  return timer.Seconds() / static_cast<double>(queries.size());
}

int Run(int argc, char** argv) {
  const bool json = bench::StripJsonFlag(&argc, argv);
  bench::JsonReport report("scaling_threads");
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const bool include_st = bench::HasFlag(argc, argv, "--st");
  const auto num_queries = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--queries", quick ? 8 : 24));
  const Value epsilon =
      static_cast<Value>(bench::FlagValue(argc, argv, "--epsilon", 40));
  const auto categories = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--categories", 20));

  const seqdb::SequenceDatabase db = PaperStockDb();
  const std::vector<seqdb::Sequence> queries = PaperQueries(db, num_queries);
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (quick) thread_counts = {1, 4};
  const std::size_t hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  std::printf("Thread scaling; stock data, epsilon %.0f, %zu queries, "
              "%zu categories, %zu hardware threads\n\n",
              epsilon, queries.size(), categories, hardware_threads);
  std::printf("%-6s %10s", "kind", "serial(s)");
  for (const std::size_t t : thread_counts) {
    char head[32];
    std::snprintf(head, sizeof head, "query@%zu", t);
    std::printf(" %8s", head);
    std::snprintf(head, sizeof head, "batch@%zu", t);
    std::printf(" %8s", head);
  }
  std::printf("\n");

  // Environment stamp: speedups from this file only make sense relative
  // to the core count of the machine that produced them.
  report.Add("env/hardware_threads", 0.0,
             {{"hardware_threads", static_cast<double>(hardware_threads)}});

  std::vector<IndexKind> kinds = {IndexKind::kCategorized, IndexKind::kSparse};
  if (include_st) kinds.insert(kinds.begin(), IndexKind::kSuffixTree);
  for (const IndexKind kind : kinds) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = categories;
    auto index = Index::Build(&db, options);
    if (!index.ok()) {
      std::fprintf(stderr, "build %s failed: %s\n", IndexKindToString(kind),
                   index.status().ToString().c_str());
      return 1;
    }
    const double serial = AvgQuerySeconds(*index, queries, epsilon, 0);
    std::printf("%-6s %10.4f", IndexKindToString(kind), serial);
    const std::string kind_name = IndexKindToString(kind);
    report.Add(kind_name + "/serial", serial * 1e9);
    for (const std::size_t t : thread_counts) {
      const double intra = AvgQuerySeconds(*index, queries, epsilon, t);
      const double batch = BatchSeconds(*index, queries, epsilon, t);
      std::printf(" %7.2fx %7.2fx", serial / intra, serial / batch);
      // efficiency = speedup / threads: 1.0 is perfect scaling, and the
      // ceiling drops to hardware_threads / t once t oversubscribes.
      report.Add(kind_name + "/query@" + std::to_string(t), intra * 1e9,
                 {{"speedup", serial / intra},
                  {"efficiency", serial / intra / static_cast<double>(t)}});
      report.Add(kind_name + "/batch@" + std::to_string(t), batch * 1e9,
                 {{"speedup", serial / batch},
                  {"efficiency", serial / batch / static_cast<double>(t)}});
    }
    std::printf("\n");
  }
  std::printf("\n(columns are speedups vs the serial searcher; query@T = "
              "one query split across T workers, batch@T = independent "
              "queries fanned across T workers)\n");

  if (bench::HasFlag(argc, argv, "--disk")) {
    // Disk-backed pool contention: the same bundle through a single-mutex
    // pool (1 shard — PR 1 behaviour) vs the sharded manager.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("tswarp_scaling_disk_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    IndexOptions build_options;
    build_options.kind = IndexKind::kSparse;
    build_options.num_categories = categories;
    build_options.disk_path = (dir / "sst_c").string();
    build_options.disk_batch_sequences = 32;
    // Keep the pool small relative to the bundle so page faults (and the
    // frame-table locking around them) stay on the hot path.
    build_options.disk_pool_pages = 64;
    if (auto built = Index::Build(&db, build_options); !built.ok()) {
      std::fprintf(stderr, "disk build failed: %s\n",
                   built.status().ToString().c_str());
      std::filesystem::remove_all(dir);
      return 1;
    }

    std::printf("\nDisk-backed SST_C (%zu pool pages/region): batch "
                "throughput, single-mutex pool vs sharded\n\n",
                build_options.disk_pool_pages);
    std::printf("%-14s %10s", "pool", "serial(s)");
    for (const std::size_t t : thread_counts) {
      char head[32];
      std::snprintf(head, sizeof head, "batch@%zu", t);
      std::printf(" %8s", head);
    }
    std::printf(" %10s\n", "conflicts");

    struct PoolConfig {
      const char* name;
      std::size_t shards;  // 1 = single global mutex; 0 = auto-sharded.
    };
    for (const PoolConfig& pool :
         {PoolConfig{"single-mutex", 1}, PoolConfig{"sharded", 0}}) {
      IndexOptions open_options = build_options;
      open_options.disk_pool_shards = pool.shards;
      auto index = Index::Open(&db, open_options);
      if (!index.ok()) {
        std::fprintf(stderr, "disk open failed: %s\n",
                     index.status().ToString().c_str());
        std::filesystem::remove_all(dir);
        return 1;
      }
      const double serial = AvgQuerySeconds(*index, queries, epsilon, 0);
      std::printf("%-14s %10.4f", pool.name, serial);
      report.Add(std::string("disk/") + pool.name + "/serial", serial * 1e9);
      for (const std::size_t t : thread_counts) {
        const double batch = BatchSeconds(*index, queries, epsilon, t);
        std::printf(" %7.2fx", serial / batch);
        report.Add(std::string("disk/") + pool.name + "/batch@" +
                       std::to_string(t),
                   batch * 1e9,
                   {{"speedup", serial / batch},
                    {"efficiency",
                     serial / batch / static_cast<double>(t)}});
      }
      const auto stats = index->PoolStats();
      std::printf(" %10llu\n",
                  stats ? static_cast<unsigned long long>(
                              stats->Total().shard_conflicts)
                        : 0ULL);
    }
    std::printf("\n(same bundle, same queries; only the frame-table "
                "sharding differs — the conflicts column counts contended "
                "shard-lock acquisitions)\n");
    std::filesystem::remove_all(dir);
  }
  if (json && !report.Write()) return 1;
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
