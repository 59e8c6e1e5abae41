#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/brute.h"
#include "core/checkpoint_join.h"
#include "core/expand.h"
#include "core/parallel_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/node_access.h"
#include "index/rstar_tree.h"
#include "util/metrics.h"

namespace csj {
namespace {

std::vector<Entry<2>> Workload(size_t n, uint64_t seed) {
  return ToEntries(GenerateGaussianClusters<2>(n, 6, 0.03, seed));
}

/// Accepts `budget` writes, retains them like a MemorySink, then enters the
/// sticky-error state — a deterministic stand-in for a disk filling up
/// mid-replay.
class DyingSink final : public JoinSink {
 public:
  DyingSink(int id_width, uint64_t budget)
      : JoinSink(id_width), budget_(budget) {}

  const std::vector<std::pair<PointId, PointId>>& links() const {
    return links_;
  }
  const std::vector<std::vector<PointId>>& groups() const { return groups_; }

 protected:
  void DoLink(PointId a, PointId b) override {
    if (Spend()) links_.emplace_back(a, b);
  }
  void DoGroup(std::span<const PointId> members) override {
    if (Spend()) groups_.emplace_back(members.begin(), members.end());
  }

 private:
  bool Spend() {
    if (writes_ >= budget_) {
      SetError(Status::IoError("sink died (injected)"));
      return false;
    }
    ++writes_;
    return true;
  }

  uint64_t budget_;
  uint64_t writes_ = 0;
  std::vector<std::pair<PointId, PointId>> links_;
  std::vector<std::vector<PointId>> groups_;
};

/// Implied links recomputed from what a sink retained: each accepted group
/// of k members stands for k*(k-1)/2 links.
template <typename Sink>
uint64_t ImpliedFromRetained(const Sink& sink) {
  uint64_t implied = sink.links().size();
  for (const auto& group : sink.groups()) {
    const uint64_t k = group.size();
    implied += k * (k - 1) / 2;
  }
  return implied;
}

TEST(ParallelJoinTest, LosslessAcrossThreadCounts) {
  const auto entries = Workload(3000, 7);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);

  for (double eps : {0.01, 0.06}) {
    const auto reference = BruteForceSelfJoin(entries, eps);
    JoinOptions options;
    options.epsilon = eps;
    for (int threads : {1, 2, 4, 8}) {
      ParallelJoinOptions parallel;
      parallel.threads = threads;
      MemorySink sink(IdWidthFor(entries.size()));
      const JoinStats stats =
          ParallelSelfJoin(tree, options, &sink, parallel);
      const auto report = CompareLinkSets(ExpandSelfJoin(sink), reference);
      ASSERT_TRUE(report.lossless())
          << "threads=" << threads << " eps=" << eps << ": "
          << report.ToString();
      EXPECT_EQ(stats.links, sink.num_links());
      EXPECT_EQ(stats.groups, sink.num_groups());
      EXPECT_EQ(stats.output_bytes, sink.bytes());
    }
  }
}

TEST(ParallelJoinTest, OutputAsCompactAsSequentialWithinSlack) {
  // Group composition differs (windows are per worker and per round), but
  // the parallel output should stay in the same compactness ballpark.
  const auto entries = Workload(5000, 11);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.04;

  CountingSink sequential(IdWidthFor(entries.size()));
  CompactSimilarityJoin(tree, options, &sequential);
  ParallelJoinOptions parallel;
  parallel.threads = 4;
  CountingSink parallel_sink(IdWidthFor(entries.size()));
  ParallelSelfJoin(tree, options, &parallel_sink, parallel);

  EXPECT_LT(parallel_sink.bytes(),
            static_cast<uint64_t>(1.5 * static_cast<double>(sequential.bytes())));
}

TEST(ParallelJoinTest, SmallAndDegenerateInputs) {
  JoinOptions options;
  options.epsilon = 0.1;
  ParallelJoinOptions parallel;
  parallel.threads = 4;
  {
    RStarTree<2> tree;  // empty
    MemorySink sink(1);
    const JoinStats stats =
        ParallelSelfJoin(tree, options, &sink, parallel);
    EXPECT_EQ(stats.links + stats.groups, 0u);
  }
  {
    RStarTree<2> tree;
    tree.Insert(0, Point2{{0.5, 0.5}});
    MemorySink sink(1);
    const JoinStats stats =
        ParallelSelfJoin(tree, options, &sink, parallel);
    EXPECT_EQ(stats.links + stats.groups, 0u);
  }
  {
    RStarTree<2> tree;
    tree.Insert(0, Point2{{0.5, 0.5}});
    tree.Insert(1, Point2{{0.52, 0.5}});
    MemorySink sink(1);
    ParallelSelfJoin(tree, options, &sink, parallel);
    EXPECT_EQ(ExpandSelfJoin(sink), (std::vector<Link>{{0, 1}}));
  }
}

TEST(ParallelJoinTest, MoreThreadsThanTasks) {
  // A tiny tree cannot be split into many tasks; extra workers idle safely.
  const auto entries = Workload(50, 13);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.05;
  ParallelJoinOptions parallel;
  parallel.threads = 16;
  MemorySink sink(2);
  ParallelSelfJoin(tree, options, &sink, parallel);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

TEST(ParallelJoinTest, PackedTreeWorks) {
  const auto entries = Workload(8000, 17);
  RStarTree<2> tree;
  PackStr(&tree, entries);
  JoinOptions options;
  options.epsilon = 0.02;
  MemorySink sink(IdWidthFor(entries.size()));
  ParallelSelfJoin(tree, options, &sink);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

TEST(ParallelJoinTest, WindowOptionsRespected) {
  const auto entries = Workload(2000, 19);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_policy = WindowPolicy::kBestFit;
  options.promote_on_merge = true;
  options.window_size = 3;
  MemorySink sink(IdWidthFor(entries.size()));
  const JoinStats stats = ParallelSelfJoin(tree, options, &sink);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(sink),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
  EXPECT_GT(stats.merge_attempts, 0u);
}

TEST(ParallelJoinTest, WorkCountersSurviveSinkDeathMidReplay) {
  // Regression: the replay loop used to sum per-worker work counters inside
  // the sink-guarded iteration, so a sink dying mid-replay silently dropped
  // the traversal work of every not-yet-replayed worker.
  const auto entries = Workload(4000, 23);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.04;
  ParallelJoinOptions parallel;
  parallel.threads = 4;
  // A task list that fits one round: the whole traversal precedes the
  // replay the sink dies in.
  parallel.tasks_per_thread = 1 << 16;
  ASSERT_LE(internal::BuildTaskList(tree, options.epsilon,
                                    internal::TaskTarget(parallel))
                .size(),
            internal::TaskTarget(parallel));

  MemorySink healthy(IdWidthFor(entries.size()));
  const JoinStats reference =
      ParallelSelfJoin(tree, options, &healthy, parallel);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_GT(healthy.num_links() + healthy.num_groups(), 8u)
      << "workload too small to die mid-replay";

  // Die a few writes in: several workers' outputs never reach the sink.
  DyingSink dying(IdWidthFor(entries.size()), 5);
  const JoinStats stats =
      ParallelSelfJoin(tree, options, &dying, parallel);
  EXPECT_FALSE(stats.status.ok());

  // The traversal completed before the replay started, so the work counters
  // must describe the full join. distance_computations and early_stops are
  // per-task sums, hence identical across schedules; the merge counters
  // depend on task-to-worker assignment, so only demand they are nonzero.
  EXPECT_EQ(stats.distance_computations, reference.distance_computations);
  EXPECT_EQ(stats.early_stops, reference.early_stops);
  EXPECT_GT(stats.merge_attempts, 0u);
  EXPECT_GE(stats.merge_attempts, stats.merges);
}

TEST(ParallelJoinTest, ImpliedCountMatchesAcceptedWritesOnSinkDeath) {
  // Regression: the replay used to bump the implied-link counters before
  // checking whether the sink actually accepted the write, so a replay cut
  // short by a sink error overcounted the dying write.
  const auto entries = Workload(3000, 29);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.05;
  ParallelJoinOptions parallel;
  parallel.threads = 4;

  for (uint64_t budget : {0ull, 1ull, 7ull, 100ull}) {
    DyingSink sink(IdWidthFor(entries.size()), budget);
    const JoinStats stats =
        ParallelSelfJoin(tree, options, &sink, parallel);
    EXPECT_FALSE(stats.status.ok()) << "budget=" << budget;
    EXPECT_EQ(stats.ImpliedLinkUpperBound(), ImpliedFromRetained(sink))
        << "budget=" << budget;
  }
}

TEST(ParallelJoinTest, TrackerRejectedWithStatusNotACrash) {
  // Regression: a non-null options.tracker used to CSJ_CHECK-abort the
  // process even though the file comment promised it was merely ignored.
  // The contract is now an InvalidArgument status and an untouched sink.
  const auto entries = Workload(500, 31);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  NodeAccessTracker tracker(/*nodes_per_page=*/4, /*cache_pages=*/64);
  JoinOptions options;
  options.epsilon = 0.05;
  options.tracker = &tracker;
  ParallelJoinOptions parallel;
  parallel.threads = 4;
  MemorySink sink(IdWidthFor(entries.size()));
  const JoinStats stats =
      ParallelSelfJoin(tree, options, &sink, parallel);
  ASSERT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sink.num_links() + sink.num_groups(), 0u);
  EXPECT_EQ(stats.links + stats.groups, 0u);
}

TEST(ParallelJoinTest, ImpliedLinkCountConsistentInBothModes) {
  // Property: in either mode the reported implied-link upper bound equals
  // the count recomputed from the emitted output, and it bounds the number
  // of distinct links the output expands to. (Strict parallel==sequential
  // equality does NOT hold: group composition differs per worker and round,
  // and overlapping groups imply different totals.)
  const auto entries = Workload(2500, 37);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.05;

  MemorySink sequential(IdWidthFor(entries.size()));
  const JoinStats seq_stats =
      CompactSimilarityJoin(tree, options, &sequential);
  ASSERT_TRUE(seq_stats.status.ok());
  EXPECT_EQ(seq_stats.ImpliedLinkUpperBound(),
            ImpliedFromRetained(sequential));
  EXPECT_GE(seq_stats.ImpliedLinkUpperBound(),
            ExpandSelfJoin(sequential).size());

  ParallelJoinOptions parallel;
  parallel.threads = 4;
  MemorySink par_sink(IdWidthFor(entries.size()));
  const JoinStats par_stats =
      ParallelSelfJoin(tree, options, &par_sink, parallel);
  ASSERT_TRUE(par_stats.status.ok());
  EXPECT_EQ(par_stats.ImpliedLinkUpperBound(), ImpliedFromRetained(par_sink));
  EXPECT_GE(par_stats.ImpliedLinkUpperBound(),
            ExpandSelfJoin(par_sink).size());

  // Both expansions are the same exact result set.
  EXPECT_EQ(ExpandSelfJoin(sequential).size(), ExpandSelfJoin(par_sink).size());
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

TEST(ParallelJoinTest, DeterministicForAGivenThreadCount) {
  // Static round assignment + worker-order replay: repeated runs emit the
  // same bytes, and the checkpointed runner (same executor, plus a
  // manifest) emits them too.
  const auto entries = Workload(5000, 41);
  RStarTree<2> tree;
  PackStr(&tree, entries);
  JoinOptions options;
  options.epsilon = 0.04;
  const int id_width = IdWidthFor(entries.size());
  const std::string dir = testing::TempDir();
  for (int threads : {2, 4}) {
    ParallelJoinOptions parallel;
    parallel.threads = threads;
    parallel.tasks_per_thread = 4;
    ASSERT_GT(internal::BuildTaskList(tree, options.epsilon,
                                      internal::TaskTarget(parallel))
                  .size(),
              internal::TaskTarget(parallel))
        << "workload too small to span several rounds";
    std::string first;
    for (int run = 0; run < 3; ++run) {
      const std::string path = dir + "/csj_par_det.txt";
      FileSink sink(id_width, path);
      const JoinStats stats =
          ParallelSelfJoin(tree, options, &sink, parallel);
      ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
      ASSERT_TRUE(sink.Finish().ok());
      const std::string bytes = ReadWholeFile(path);
      std::remove(path.c_str());
      ASSERT_FALSE(bytes.empty());
      if (run == 0) {
        first = bytes;
      } else {
        EXPECT_EQ(bytes, first) << "threads=" << threads << " run=" << run;
      }
    }

    OutputSpec spec;
    spec.format = OutputFormat::kText;
    spec.path = dir + "/csj_par_det_ckpt.txt";
    spec.id_width = id_width;
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path = dir + "/csj_par_det.ckpt";
    ckpt.parallel = parallel;
    const JoinStats stats =
        CheckpointedSelfJoin(tree, JoinAlgorithm::kCSJ, options, spec, ckpt);
    ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
    EXPECT_EQ(ReadWholeFile(spec.path), first) << "threads=" << threads;
    std::remove(spec.path.c_str());
  }
}

#ifndef CSJ_NO_METRICS
uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter, value] : metrics::Snapshot().counters) {
    if (counter == name) return value;
  }
  return 0;
}

TEST(ParallelJoinTest, ThreadedJoinsRecordParallelMetricsOnce) {
  const auto entries = Workload(3000, 43);
  RStarTree<2> tree;
  PackStr(&tree, entries);
  JoinOptions options;
  options.epsilon = 0.04;
  ParallelJoinOptions parallel;
  parallel.threads = 3;
  parallel.tasks_per_thread = 4;
  const uint64_t tasks =
      internal::BuildTaskList(tree, options.epsilon, internal::TaskTarget(parallel))
          .size();
  ASSERT_GT(tasks, 0u);

  auto expect_one_join = [&](const char* label, const auto& run) {
    const uint64_t joins = CounterValue("parallel.joins");
    const uint64_t workers = CounterValue("parallel.workers");
    const uint64_t tasks_total = CounterValue("parallel.tasks_total");
    ASSERT_TRUE(run().status.ok()) << label;
    EXPECT_EQ(CounterValue("parallel.joins"), joins + 1) << label;
    EXPECT_EQ(CounterValue("parallel.workers"), workers + 3) << label;
    EXPECT_EQ(CounterValue("parallel.tasks_total"), tasks_total + tasks) << label;
  };
  expect_one_join("ParallelSelfJoin", [&] {
    CountingSink sink(IdWidthFor(entries.size()));
    return ParallelSelfJoin(tree, options, &sink, parallel);
  });
  expect_one_join("CheckpointedSelfJoin", [&] {
    OutputSpec spec = OutputSpec::Counting(entries.size());
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path = testing::TempDir() + "/csj_par_metrics.ckpt";
    ckpt.parallel = parallel;
    return CheckpointedSelfJoin(tree, JoinAlgorithm::kCSJ, options, spec, ckpt);
  });
}
#endif  // CSJ_NO_METRICS

}  // namespace
}  // namespace csj
