#include "core/checkpoint_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/node_access.h"
#include "index/rstar_tree.h"
#include "storage/checkpoint.h"
#include "util/failpoint.h"
#include "util/metrics.h"

/// \file
/// Checkpointed join execution: byte-identical resume after interruption
/// (text + binary, serial + parallel), graceful cancellation, deadline
/// expiry, resume validation against configuration drift, and exact
/// cumulative JoinStats across resumes. The interruptions here are real —
/// a deadline watchdog stops the run at an arbitrary task boundary and the
/// test resumes until completion, so every assertion is independent of
/// *where* the run was cut.

namespace csj {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
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

uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter, value] : metrics::Snapshot().counters) {
    if (counter == name) return value;
  }
  return 0;
}

/// Expects the work/output counters (everything except timing) to match.
void ExpectSameCounters(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(a.links, b.links);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.group_member_total, b.group_member_total);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.kernel_candidates, b.kernel_candidates);
  EXPECT_EQ(a.kernel_pruned, b.kernel_pruned);
  EXPECT_EQ(a.kernel_hits, b.kernel_hits);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.merge_attempts, b.merge_attempts);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.ImpliedLinkUpperBound(), b.ImpliedLinkUpperBound());
}

class CheckpointJoinTest : public testing::Test {
 protected:
  void SetUp() override {
    entries_ = ToEntries(GenerateGaussianClusters<2>(6000, 6, 0.02, 23));
    PackStr(&tree_, entries_);
  }

  void TearDown() override {
    for (const auto& path : cleanup_) std::remove(path.c_str());
  }

  JoinOptions Options() const {
    JoinOptions options;
    options.epsilon = 0.02;
    options.window_size = 10;
    return options;
  }

  OutputSpec Spec(OutputFormat format, const std::string& name) {
    OutputSpec spec;
    spec.format = format;
    spec.path = testing::TempDir() + "/" + name;
    spec.id_width = IdWidthFor(entries_.size());
    cleanup_.push_back(spec.path);
    return spec;
  }

  CheckpointJoinOptions Ckpt(const std::string& name, int threads = 1) {
    CheckpointJoinOptions ckpt;
    ckpt.manifest_path = testing::TempDir() + "/" + name;
    ckpt.checkpoint_interval = 7;
    ckpt.parallel = {.threads = threads, .tasks_per_thread = 8};
    cleanup_.push_back(ckpt.manifest_path);
    return ckpt;
  }

  /// One uninterrupted checkpointed run.
  JoinStats RunFull(JoinAlgorithm algorithm, const OutputSpec& spec,
                    const CheckpointJoinOptions& ckpt) {
    JoinStats stats =
        CheckpointedSelfJoin(tree_, algorithm, Options(), spec, ckpt);
    EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
    EXPECT_FALSE(FileExists(ckpt.manifest_path))
        << "manifest survived a completed run";
    return stats;
  }

  /// Runs under a short deadline, resuming after every expiration until the
  /// join completes. Returns the final (cumulative) stats and requires at
  /// least one real interruption, so the equivalence assertions downstream
  /// genuinely cover the resume path.
  JoinStats RunCrashLoop(JoinAlgorithm algorithm, const OutputSpec& spec,
                         CheckpointJoinOptions ckpt, uint64_t deadline_ms,
                         int* interruptions_out = nullptr) {
    JoinOptions options = Options();
    options.deadline_ms = deadline_ms;
    int interruptions = 0;
    ckpt.resume = false;
    for (int attempt = 0; attempt < 500; ++attempt) {
      const JoinStats stats =
          CheckpointedSelfJoin(tree_, algorithm, options, spec, ckpt);
      if (stats.status.ok()) {
        EXPECT_FALSE(FileExists(ckpt.manifest_path));
        if (interruptions_out != nullptr) *interruptions_out = interruptions;
        return stats;
      }
      EXPECT_EQ(stats.status.code(), StatusCode::kDeadlineExceeded)
          << stats.status.ToString();
      EXPECT_TRUE(FileExists(ckpt.manifest_path))
          << "interrupted run left no manifest";
      ++interruptions;
      ckpt.resume = true;
      // Let later sessions run longer so the loop always converges even on
      // a slow (e.g. sanitizer) build.
      if (attempt >= 50) options.deadline_ms = deadline_ms * 10;
    }
    ADD_FAILURE() << "crash loop did not converge";
    return JoinStats{};
  }

  std::vector<Entry<2>> entries_;
  RStarTree<2> tree_;
  std::vector<std::string> cleanup_;
};

TEST_F(CheckpointJoinTest, UninterruptedRunIsDeterministicAndLossless) {
  const auto spec_a = Spec(OutputFormat::kText, "ckj_det_a.txt");
  const auto spec_b = Spec(OutputFormat::kText, "ckj_det_b.txt");
  const JoinStats a = RunFull(JoinAlgorithm::kCSJ, spec_a, Ckpt("ckj_det_a.ckpt"));
  const JoinStats b = RunFull(JoinAlgorithm::kCSJ, spec_b, Ckpt("ckj_det_b.ckpt"));
  ExpectSameCounters(a, b);
  const std::string bytes = ReadWholeFile(spec_a.path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, ReadWholeFile(spec_b.path));

  // The task-decomposed traversal must still be a lossless compact join.
  auto cursor = OpenResultCursor(spec_a.path);
  ASSERT_TRUE(cursor.ok());
  auto expansion = ExpandSelfJoin(cursor->get());
  ASSERT_TRUE(expansion.ok());
  const auto report = CompareLinkSets(
      *expansion, BruteForceSelfJoin(entries_, Options().epsilon));
  EXPECT_TRUE(report.lossless()) << report.ToString();
}

TEST_F(CheckpointJoinTest, TextResumeIsByteIdentical) {
  const auto full_spec = Spec(OutputFormat::kText, "ckj_text_full.txt");
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_text_full.ckpt"));

  const auto spec = Spec(OutputFormat::kText, "ckj_text_crash.txt");
  int interruptions = 0;
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kCSJ, spec,
                                         Ckpt("ckj_text_crash.ckpt"),
                                         /*deadline_ms=*/15, &interruptions);
  EXPECT_GT(interruptions, 0) << "deadline never fired; nothing was tested";
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, BinaryResumeIsByteIdentical) {
  const auto full_spec = Spec(OutputFormat::kBinary, "ckj_bin_full.bin");
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_bin_full.ckpt"));

  const auto spec = Spec(OutputFormat::kBinary, "ckj_bin_crash.bin");
  int interruptions = 0;
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kCSJ, spec,
                                         Ckpt("ckj_bin_crash.ckpt"),
                                         /*deadline_ms=*/15, &interruptions);
  EXPECT_GT(interruptions, 0);
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, SsjResumeIsByteIdentical) {
  // SSJ has no merge window — the manifest's window section must round-trip
  // empty and the link stream must still be byte-identical.
  const auto full_spec = Spec(OutputFormat::kText, "ckj_ssj_full.txt");
  const JoinStats full =
      RunFull(JoinAlgorithm::kSSJ, full_spec, Ckpt("ckj_ssj_full.ckpt"));
  const auto spec = Spec(OutputFormat::kText, "ckj_ssj_crash.txt");
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kSSJ, spec,
                                         Ckpt("ckj_ssj_crash.ckpt"),
                                         /*deadline_ms=*/15);
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, ParallelResumeIsByteIdentical) {
  const auto full_spec = Spec(OutputFormat::kBinary, "ckj_par_full.bin");
  const JoinStats full = RunFull(JoinAlgorithm::kCSJ, full_spec,
                                 Ckpt("ckj_par_full.ckpt", /*threads=*/2));
  const auto spec = Spec(OutputFormat::kBinary, "ckj_par_crash.bin");
  int interruptions = 0;
  const JoinStats resumed = RunCrashLoop(
      JoinAlgorithm::kCSJ, spec, Ckpt("ckj_par_crash.ckpt", /*threads=*/2),
      /*deadline_ms=*/15, &interruptions);
  EXPECT_GT(interruptions, 0);
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, CountingSinkResumesToExactByteCount) {
  // kNone never materializes output, but its byte accounting (in the binary
  // model, including the open-block fill) must survive a resume exactly.
  auto spec = Spec(OutputFormat::kNone, "unused");
  spec.path.clear();
  spec.count_model = OutputFormat::kBinary;
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_none_full.ckpt"));
  const JoinStats resumed = RunCrashLoop(JoinAlgorithm::kCSJ, spec,
                                         Ckpt("ckj_none_crash.ckpt"),
                                         /*deadline_ms=*/15);
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, PresetCancelStopsBeforeAnyWork) {
  std::atomic<bool> cancel{true};
  const auto spec = Spec(OutputFormat::kText, "ckj_cancel.txt");
  auto ckpt = Ckpt("ckj_cancel.ckpt");
  ckpt.cancel = &cancel;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_EQ(stats.status.code(), StatusCode::kCancelled)
      << stats.status.ToString();
  EXPECT_EQ(stats.distance_computations, 0u);
  ASSERT_TRUE(FileExists(ckpt.manifest_path));

  // Clearing the flag and resuming completes the whole join, byte-identical
  // to a run that was never cancelled.
  cancel.store(false);
  ckpt.resume = true;
  const JoinStats resumed =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();

  const auto full_spec = Spec(OutputFormat::kText, "ckj_cancel_full.txt");
  const JoinStats full =
      RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_cancel_full.ckpt"));
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, ResumeValidatesConfigurationAndManifest) {
  // Save a genuine mid-run manifest by cancelling immediately.
  std::atomic<bool> cancel{true};
  const auto spec = Spec(OutputFormat::kText, "ckj_validate.txt");
  auto ckpt = Ckpt("ckj_validate.ckpt");
  ckpt.cancel = &cancel;
  ASSERT_EQ(CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec,
                                 ckpt)
                .status.code(),
            StatusCode::kCancelled);
  cancel.store(false);
  ckpt.resume = true;

  {
    // Different epsilon: the fingerprint must reject the resume.
    JoinOptions options = Options();
    options.epsilon = 0.021;
    const JoinStats stats =
        CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, options, spec, ckpt);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition)
        << stats.status.ToString();
  }
  {
    // Different algorithm.
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kSSJ,
                                                 Options(), spec, ckpt);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Different thread count (changes the parallel replay order).
    auto two = ckpt;
    two.parallel.threads = 2;
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, two);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition);
    // The specific message names both counts (the fingerprint also hashes
    // the thread count, so it must not shadow this check).
    EXPECT_NE(stats.status.message().find("checkpoint used 1 threads, this run 2"),
              std::string::npos)
        << stats.status.ToString();
  }
  {
    // Different task granularity (changes the task list).
    auto coarse = ckpt;
    coarse.parallel.tasks_per_thread = 64;
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, coarse);
    EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Truncated manifest: a clean parse error, never a silent restart.
    const std::string bytes = ReadWholeFile(ckpt.manifest_path);
    std::FILE* f = std::fopen(ckpt.manifest_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, ckpt);
    EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument)
        << stats.status.ToString();
  }
}

TEST_F(CheckpointJoinTest, ResumeWithoutManifestIsNotFound) {
  const auto spec = Spec(OutputFormat::kText, "ckj_missing.txt");
  auto ckpt = Ckpt("ckj_missing.ckpt");
  ckpt.resume = true;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  EXPECT_EQ(stats.status.code(), StatusCode::kNotFound)
      << stats.status.ToString();
}

TEST_F(CheckpointJoinTest, EmptyManifestPathIsRejected) {
  const auto spec = Spec(OutputFormat::kText, "ckj_nopath.txt");
  CheckpointJoinOptions ckpt;
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointJoinTest, ThreadedTrackerIsRejectedBeforeTheOutputOpens) {
  // Regression: the rejection must come before the sink opens spec.path in
  // place, or it truncates whatever file is already there.
  const auto spec = Spec(OutputFormat::kText, "ckj_tracker.txt");
  const std::string existing = "earlier output\n";
  {
    std::FILE* f = std::fopen(spec.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(existing.c_str(), f);
    std::fclose(f);
  }
  NodeAccessTracker tracker(/*nodes_per_page=*/4, /*cache_pages=*/64);
  JoinOptions options = Options();
  options.tracker = &tracker;
  const auto ckpt = Ckpt("ckj_tracker.ckpt", /*threads=*/2);
  const JoinStats stats =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, options, spec, ckpt);
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument)
      << stats.status.ToString();
  EXPECT_EQ(ReadWholeFile(spec.path), existing);
  EXPECT_FALSE(FileExists(ckpt.manifest_path));
}

#ifndef CSJ_NO_FAILPOINTS

TEST_F(CheckpointJoinTest, SinkCrashKeepsManifestAndResumesByteIdentical) {
  // A hard I/O fault mid-run (any crash site in the output path) poisons the
  // sink and aborts the run — but the manifest of the last successful
  // checkpoint must survive, and a resume after the fault clears must finish
  // with byte-identical output.
  const auto full_spec = Spec(OutputFormat::kBinary, "ckj_fault_full.bin");
  RunFull(JoinAlgorithm::kCSJ, full_spec, Ckpt("ckj_fault_full.ckpt"));

  const auto spec = Spec(OutputFormat::kBinary, "ckj_fault_crash.bin");
  auto ckpt = Ckpt("ckj_fault_crash.ckpt");
  {
    // Let the initial checkpoint land, then fail a later append hard.
    failpoint::ScopedFailpoint fp("output_file.append",
                                  failpoint::Spec::EveryNth(40));
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, ckpt);
    ASSERT_FALSE(stats.status.ok());
    ASSERT_TRUE(FileExists(ckpt.manifest_path))
        << "crash discarded the last good checkpoint";
  }
  ckpt.resume = true;
  const JoinStats resumed =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(full_spec.path));
}

TEST_F(CheckpointJoinTest, FailedRoundCheckpointStillReportsTheSinkOutput) {
  // Regression: when the checkpoint save at a parallel round boundary
  // failed, the returned links/groups/group_member_total/output_bytes were
  // all zero although the sink already held the replayed round.
  auto spec = Spec(OutputFormat::kNone, "unused");
  spec.path.clear();
  auto ckpt = Ckpt("ckj_round_save.ckpt", /*threads=*/2);
  {
    // Manifest opens: the initial checkpoint, then the first round boundary.
    failpoint::ScopedFailpoint fp("output_file.open",
                                  failpoint::Spec::EveryNth(2));
    const JoinStats stats = CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ,
                                                 Options(), spec, ckpt);
    ASSERT_FALSE(stats.status.ok());
    ASSERT_TRUE(FileExists(ckpt.manifest_path))
        << "the initial checkpoint must stay the resume point";
    EXPECT_GT(stats.links + stats.groups, 0u)
        << "the first round reached the sink";
    EXPECT_GE(stats.group_member_total, 2 * stats.groups);
    // The counting sink's text model: every id costs id_width + 1 bytes.
    EXPECT_EQ(stats.output_bytes,
              (2 * stats.links + stats.group_member_total) *
                  static_cast<uint64_t>(spec.id_width + 1));
    EXPECT_GE(stats.ImpliedLinkUpperBound(), stats.links + stats.groups);
  }
  // Resuming from the initial checkpoint still converges on the full run.
  ckpt.resume = true;
  const JoinStats resumed =
      CheckpointedSelfJoin(tree_, JoinAlgorithm::kCSJ, Options(), spec, ckpt);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  const JoinStats full = RunFull(JoinAlgorithm::kCSJ, spec,
                                 Ckpt("ckj_round_save_full.ckpt", /*threads=*/2));
  ExpectSameCounters(resumed, full);
}

TEST_F(CheckpointJoinTest, ProbabilisticTransientFaultsAreAbsorbedByRetry) {
  // A flaky device (prob: failpoint, deterministic seed) injects transient
  // short writes throughout the run; the backoff policy must absorb every
  // one of them — the join completes OK and the output is byte-identical to
  // a run on a healthy device.
  const auto healthy_spec = Spec(OutputFormat::kBinary, "ckj_retry_ref.bin");
  RunFull(JoinAlgorithm::kCSJ, healthy_spec, Ckpt("ckj_retry_ref.ckpt"));

  const uint64_t errors_before = CounterValue("retry.transient_errors");
  const uint64_t attempts_before = CounterValue("retry.attempts");
  const auto spec = Spec(OutputFormat::kBinary, "ckj_retry_flaky.bin");
  {
    failpoint::ScopedFailpoint fp(
        "output_file.append_transient",
        failpoint::Spec::Probability(0.2, /*seed=*/7));
    RunFull(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_retry_flaky.ckpt"));
  }
  EXPECT_EQ(ReadWholeFile(spec.path), ReadWholeFile(healthy_spec.path));
#ifndef CSJ_NO_METRICS
  EXPECT_GT(CounterValue("retry.transient_errors"), errors_before)
      << "the prob: failpoint never fired; nothing was tested";
  EXPECT_GT(CounterValue("retry.attempts"), attempts_before);
#else
  (void)errors_before;
  (void)attempts_before;
#endif
}

#endif  // CSJ_NO_FAILPOINTS

TEST_F(CheckpointJoinTest, MetricsAccumulateAcrossResume) {
  const uint64_t saves_before = CounterValue("checkpoint.saves");
  const uint64_t resumes_before = CounterValue("checkpoint.resumes");
  const auto spec = Spec(OutputFormat::kText, "ckj_metrics.txt");
  int interruptions = 0;
  RunCrashLoop(JoinAlgorithm::kCSJ, spec, Ckpt("ckj_metrics.ckpt"),
               /*deadline_ms=*/15, &interruptions);
  ASSERT_GT(interruptions, 0);
#ifndef CSJ_NO_METRICS
  EXPECT_GT(CounterValue("checkpoint.saves"), saves_before);
  EXPECT_EQ(CounterValue("checkpoint.resumes"),
            resumes_before + static_cast<uint64_t>(interruptions));
#else
  (void)saves_before;
  (void)resumes_before;
#endif
}

}  // namespace
}  // namespace csj
