#ifndef CSJ_CORE_CHECKPOINT_JOIN_H_
#define CSJ_CORE_CHECKPOINT_JOIN_H_

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_join.h"
#include "core/similarity_join.h"
#include "storage/checkpoint.h"
#include "util/exec_context.h"
#include "util/metrics.h"

/// \file
/// Crash-safe checkpointed join execution with resume, deadlines and
/// graceful cancellation.
///
/// A long self-join is decomposed into the deterministic task list of
/// parallel_join.h (independent single-subtree and subtree-pair units that
/// exactly cover the pair space). Tasks are the unit of progress: the runner
/// snapshots its state only *between* tasks, and cancellation (a signal, an
/// expired deadline) also takes effect only between tasks, so the sink is
/// always at a position the manifest can describe.
///
/// A checkpoint (storage/checkpoint.h) makes the output durable up to a
/// committed boundary — a record boundary for text, a sealed-block boundary
/// plus the open block's payload for the CSJ2 binary format — and records
/// the next task index, the pending CSJ(g) window groups, cumulative
/// JoinStats and curated metric counters. `--resume` truncates the output
/// back to the committed boundary and continues; because blocks seal purely
/// by the size rule and the open block's payload is restored verbatim, the
/// resumed output is **byte-identical** to an uninterrupted run, no matter
/// when (or how often) the run was killed.
///
/// Execution is parallel_join.h's RunTaskList; this runner only adds the
/// manifest, the sink and a boundary hook. Serial mode (threads <= 1) may
/// checkpoint after any task. Parallel mode runs deterministic *rounds*
/// (static assignment of task i to worker i % threads, replay in worker
/// order) and checkpoints at every round boundary. A round is a pure
/// function of (task list, threads), so parallel resumes are byte-identical
/// too — which is also why a resume must use the same thread count.
///
/// Governance: the runner owns an ExecContext (util/exec_context.h) chaining
/// `options.exec` with `options.deadline_ms` and the `ckpt.cancel` flag, and
/// polls it between tasks. The *drivers* deliberately see only the memory
/// budget — never the deadline or cancel flag — because a mid-task trip
/// would leave the sink at a position no manifest can describe and break
/// byte-identical resume. Deadline, cancel and external trips therefore take
/// effect at the next task (or round) boundary, where a final checkpoint is
/// still well-defined.
///
/// Outcome statuses: OK (complete; manifest deleted), kCancelled /
/// kDeadlineExceeded (final checkpoint saved at the interrupted boundary),
/// kResourceExhausted (a driver's budget charge was denied mid-task; the
/// previous checkpoint remains the resume point), or the sink's error (the
/// manifest of the last successful checkpoint is kept for resume).

namespace csj {

/// Checkpointed-execution knobs, on top of JoinOptions (whose deadline_ms
/// and exec context the runner polls between tasks).
struct CheckpointJoinOptions {
  /// Where the manifest lives. Saved via atomic temp+rename commit; deleted
  /// when the join completes. Required.
  std::string manifest_path;
  /// Tasks between checkpoints (serial mode). Parallel mode checkpoints at
  /// every round boundary regardless. 0 disables periodic checkpoints —
  /// only cancellation/deadline write one.
  uint64_t checkpoint_interval = 32;
  /// Worker threads (<= 1 runs serial) and task granularity. A resumed run
  /// must use the same values (enforced against the manifest).
  ParallelJoinOptions parallel{.threads = 1};
  /// Continue from manifest_path instead of starting over. Fails cleanly if
  /// the manifest is missing, corrupt, or from a different configuration.
  bool resume = false;
  /// External cancel flag (e.g. flipped by a SIGINT handler). Polled at
  /// task boundaries; when set, a final checkpoint is written and the run
  /// returns kCancelled. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
};

namespace internal {

/// Counter prefixes a checkpoint carries across resumes: the process-wide
/// metrics a join run contributes to. After a resume the registry reports
/// the same cumulative values an uninterrupted run would.
inline bool IsCheckpointedMetric(const std::string& name) {
  for (const char* prefix :
       {"join.", "sink.", "kernel.", "window.", "parallel."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Fingerprint of every knob that shapes the output stream. A manifest from
/// a different configuration must not be resumed — the bytes would diverge.
template <typename Tree>
uint64_t ConfigFingerprint(const Tree& tree, JoinAlgorithm algorithm,
                           const JoinOptions& options, const OutputSpec& spec,
                           const CheckpointJoinOptions& ckpt) {
  using checkpoint::HashCombine;
  uint64_t h = 0xC5A11E5C;  // arbitrary non-zero seed
  h = HashCombine(h, static_cast<uint64_t>(algorithm));
  uint64_t eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(options.epsilon));
  std::memcpy(&eps_bits, &options.epsilon, sizeof(eps_bits));
  h = HashCombine(h, eps_bits);
  h = HashCombine(h, static_cast<uint64_t>(options.window_size));
  h = HashCombine(h, (options.early_stop ? 1u : 0u) |
                         (options.sort_child_pairs ? 2u : 0u) |
                         (options.promote_on_merge ? 4u : 0u));
  h = HashCombine(h, static_cast<uint64_t>(options.window_policy));
  // leaf_kernel is deliberately *excluded*: all kernels emit hits in the
  // same order (geom/kernels.h), so the output stream is kernel-invariant
  // and a resume may use a different kernel than the original run.
  h = HashCombine(h, static_cast<uint64_t>(spec.format));
  h = HashCombine(h, static_cast<uint64_t>(spec.id_width));
  h = HashCombine(h, static_cast<uint64_t>(spec.count_model));
  h = HashCombine(h, static_cast<uint64_t>(std::max(ckpt.parallel.threads, 1)));
  h = HashCombine(h,
                  static_cast<uint64_t>(std::max(ckpt.parallel.tasks_per_thread, 1)));
  h = HashCombine(h, tree.size());
  h = HashCombine(h, static_cast<uint64_t>(Tree::kDim));
  return h;
}

template <typename Task>
uint64_t TaskListHash(const std::vector<Task>& tasks) {
  uint64_t h = tasks.size();
  for (const Task& t : tasks) {
    h = checkpoint::HashCombine(h, t.first);
    h = checkpoint::HashCombine(h, t.second);
  }
  return h;
}

/// Composes the cumulative StatsState for a manifest: the resumed-from base
/// plus everything this session's drivers have done so far.
inline checkpoint::StatsState ComposeStats(const checkpoint::StatsState& base,
                                           const JoinStats& fresh,
                                           double fresh_elapsed,
                                           double fresh_write) {
  checkpoint::StatsState s = base;
  s.distance_computations += fresh.distance_computations;
  s.kernel_candidates += fresh.kernel_candidates;
  s.kernel_pruned += fresh.kernel_pruned;
  s.kernel_hits += fresh.kernel_hits;
  s.node_accesses += fresh.node_accesses;
  s.page_requests += fresh.page_requests;
  s.page_disk_reads += fresh.page_disk_reads;
  s.early_stops += fresh.early_stops;
  s.merge_attempts += fresh.merge_attempts;
  s.merges += fresh.merges;
  s.implied_links += fresh.ImpliedLinkUpperBound();
  s.elapsed_seconds += fresh_elapsed;
  s.write_seconds += fresh_write;
  return s;
}

/// Folds a manifest's StatsState base into a finalized JoinStats (whose
/// output counters already come from the restored sink and are cumulative).
inline void ApplyStatsBase(JoinStats* stats, const checkpoint::StatsState& b) {
  stats->distance_computations += b.distance_computations;
  stats->kernel_candidates += b.kernel_candidates;
  stats->kernel_pruned += b.kernel_pruned;
  stats->kernel_hits += b.kernel_hits;
  stats->node_accesses += b.node_accesses;
  stats->page_requests += b.page_requests;
  stats->page_disk_reads += b.page_disk_reads;
  stats->early_stops += b.early_stops;
  stats->merge_attempts += b.merge_attempts;
  stats->merges += b.merges;
  stats->AddImpliedLinks(b.implied_links);
  stats->elapsed_seconds += b.elapsed_seconds;
  stats->write_seconds += b.write_seconds;
}

/// Snapshot of the checkpoint-carried counters at session start; lets a
/// checkpoint record `base + (now - session_start)` for each counter.
struct MetricBaseline {
  std::vector<std::pair<std::string, uint64_t>> session_start;
  std::vector<std::pair<std::string, uint64_t>> manifest_base;

  void Capture() {
    session_start.clear();
    for (const auto& [name, value] : metrics::Snapshot().counters) {
      if (IsCheckpointedMetric(name)) session_start.emplace_back(name, value);
    }
  }

  uint64_t StartValue(const std::string& name) const {
    for (const auto& [n, v] : session_start) {
      if (n == name) return v;
    }
    return 0;
  }

  uint64_t BaseValue(const std::string& name) const {
    for (const auto& [n, v] : manifest_base) {
      if (n == name) return v;
    }
    return 0;
  }

  /// Cumulative checkpoint-carried counters right now.
  std::vector<std::pair<std::string, uint64_t>> Compose() const {
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto& [name, value] : metrics::Snapshot().counters) {
      if (!IsCheckpointedMetric(name)) continue;
      out.emplace_back(name, BaseValue(name) + value - StartValue(name));
    }
    // A counter the interrupted run touched but this session has not yet.
    for (const auto& [name, value] : manifest_base) {
      bool seen = false;
      for (const auto& [n, v] : out) seen = seen || n == name;
      if (!seen) out.emplace_back(name, value);
    }
    return out;
  }
};

}  // namespace internal

/// Checkpointed (and optionally parallel) self-join with resume. Creates
/// the sink from `spec` itself: fresh runs force spec.checkpointable for
/// materializing formats; resumed runs rebuild the sink mid-stream from the
/// manifest. See the file comment for semantics.
template <SpatialIndex Tree>
JoinStats CheckpointedSelfJoin(const Tree& tree, JoinAlgorithm algorithm,
                               const JoinOptions& options, OutputSpec spec,
                               const CheckpointJoinOptions& ckpt) {
  JoinStats failed;
  failed.algorithm = algorithm;
  failed.epsilon = options.epsilon;
  failed.window_size = algorithm == JoinAlgorithm::kCSJ ? options.window_size
                                                        : 0;
  if (ckpt.manifest_path.empty()) {
    failed.status =
        Status::InvalidArgument("CheckpointJoinOptions.manifest_path is empty");
    return failed;
  }
  ParallelJoinOptions parallel = ckpt.parallel;
  parallel.threads = std::max(parallel.threads, 1);
  const int threads = parallel.threads;
  // Rejected before the sink exists: making it would truncate spec.path.
  if (Status s = internal::CheckParallelSupported<Tree>(options, threads);
      !s.ok()) {
    failed.status = s;
    return failed;
  }
  if (spec.format != OutputFormat::kNone) spec.checkpointable = true;

  const auto tasks = internal::BuildTaskList(
      tree, options.epsilon, internal::TaskTarget(parallel), options.exec);
  const uint64_t fingerprint =
      internal::ConfigFingerprint(tree, algorithm, options, spec, ckpt);
  const uint64_t task_hash = internal::TaskListHash(tasks);

  // --- Establish the starting state: fresh, or restored from the manifest.
  checkpoint::Manifest base;  // stays default for fresh runs
  std::unique_ptr<JoinSink> sink;
  if (ckpt.resume) {
    auto loaded = checkpoint::Load(ckpt.manifest_path);
    if (!loaded.ok()) {
      failed.status = loaded.status();
      return failed;
    }
    base = std::move(loaded).value();
    // Checked before the fingerprint (which hashes the thread count too) so
    // the operator learns which knob differs.
    if (base.threads != static_cast<uint32_t>(threads)) {
      failed.status = Status::FailedPrecondition(StrFormat(
          "cannot resume: checkpoint used %u threads, this run %d (the "
          "parallel replay order depends on the thread count)",
          base.threads, threads));
      return failed;
    }
    if (base.config_fingerprint != fingerprint) {
      failed.status = Status::FailedPrecondition(
          "cannot resume: the checkpoint was written under a different "
          "configuration (algorithm/epsilon/window/output/granularity)");
      return failed;
    }
    if (base.total_tasks != tasks.size() || base.task_list_hash != task_hash) {
      failed.status = Status::FailedPrecondition(
          "cannot resume: the rebuilt task list does not match the "
          "checkpoint (different tree or granularity)");
      return failed;
    }
    auto resumed = ResumeSink(spec, base.sink);
    if (!resumed.ok()) {
      failed.status = resumed.status();
      return failed;
    }
    sink = std::move(resumed).value();
    // Re-seed the process-wide metrics so a resumed run's registry reports
    // the same cumulative join.*/sink.*/... counts an uninterrupted run
    // would. (The restored sink starts from zero — its constructor path
    // does not replay sink.links/sink.bytes — so the manifest's counters
    // are added wholesale.)
    for (const auto& [name, value] : base.metric_counters) {
      if (value > 0) metrics::GetCounter(name)->Increment(value);
    }
    CSJ_METRIC_COUNT("checkpoint.resumes", 1);
  } else {
    auto made = MakeSink(spec);
    if (!made.ok()) {
      failed.status = made.status();
      return failed;
    }
    sink = std::move(made).value();
  }

  internal::MetricBaseline metric_baseline;
  metric_baseline.manifest_base = base.metric_counters;
  // Captured *after* the resume merge above, so Compose() yields exactly
  // base + this-session's-work for every counter.
  metric_baseline.Capture();

  WallTimer timer;

  // The runner's governance context: deadline + cancel + whatever the caller
  // installed in options.exec. Polled only at task / round boundaries.
  ExecContext run_ctx;
  run_ctx.SetParent(options.exec);
  run_ctx.SetDeadlineAfterMs(options.deadline_ms);
  run_ctx.SetCancelFlag(ckpt.cancel);
  // What the drivers see: the memory budget only. A driver must run each
  // task to completion (see the file comment), so its options strip the
  // deadline and chain to a budget-only context.
  ExecContext task_ctx;
  task_ctx.SetMemoryBudget(run_ctx.memory_budget());
  JoinOptions task_options = options;
  task_options.deadline_ms = 0;
  task_options.exec = &task_ctx;

  const uint64_t first_task = ckpt.resume ? base.next_task : 0;
  using Boundary = internal::TaskBoundary<Tree>;

  // A serial boundary carries the driver's CSJ(g) window, and the driver's
  // bulk-added work counters (join.merges etc., mirrored into the registry
  // only at Finalize) have not reached the registry yet, so they are folded
  // into the manifest from `work` directly. Parallel workers finalize every
  // round, and their windows are flushed.
  auto save_checkpoint = [&](const Boundary& b) -> Status {
    checkpoint::SinkState sink_state;
    CSJ_RETURN_IF_ERROR(sink->Checkpoint(&sink_state));
    checkpoint::Manifest m;
    m.config_fingerprint = fingerprint;
    m.dims = static_cast<uint32_t>(Tree::kDim);
    m.threads = static_cast<uint32_t>(threads);
    m.total_tasks = tasks.size();
    m.task_list_hash = task_hash;
    m.next_task = b.next_task;
    m.stats = internal::ComposeStats(base.stats, b.work,
                                     timer.ElapsedSeconds(), b.write_seconds);
    m.sink = sink_state;
    if (b.driver != nullptr && algorithm == JoinAlgorithm::kCSJ) {
      m.window = b.driver->window().ExportState();
    }
    m.metric_counters = metric_baseline.Compose();
    if (b.driver != nullptr) {
      auto add = [&m](const char* name, uint64_t v) {
        if (v == 0) return;
        for (auto& [n, value] : m.metric_counters) {
          if (n == name) {
            value += v;
            return;
          }
        }
        m.metric_counters.emplace_back(name, v);
      };
      add("join.distance_computations", b.work.distance_computations);
      add("join.early_stops", b.work.early_stops);
      add("join.merge_attempts", b.work.merge_attempts);
      add("join.merges", b.work.merges);
    }
    return checkpoint::Save(ckpt.manifest_path, m);
  };

  // Non-OK once the governance context trips (deadline, cancel, or an
  // external trip of options.exec). The deadline-expiration metric is
  // recorded here, at detection, preserving the watchdog-era counter.
  auto interrupted = [&]() -> Status {
    // ShouldStopNow: boundary polls are rare, so read the clock every time
    // instead of relying on the hot-loop stride amortization.
    if (!run_ctx.ShouldStopNow()) return Status::OK();
    Status s = run_ctx.status();
    if (s.code() == StatusCode::kDeadlineExceeded) {
      CSJ_METRIC_COUNT("checkpoint.deadline_expirations", 1);
    }
    return s;
  };

  auto interruption_status = [&](const Status& why, uint64_t frontier,
                                 const Status& save) -> Status {
    if (!save.ok()) {
      return Status::IoError(StrFormat(
          "interrupted at task %llu/%zu and the final checkpoint failed: %s",
          static_cast<unsigned long long>(frontier), tasks.size(),
          save.ToString().c_str()));
    }
    return Status(
        why.code(),
        StrFormat("stopped at task %llu/%zu (%s); checkpoint saved to %s — "
                  "rerun with --resume to continue",
                  static_cast<unsigned long long>(frontier), tasks.size(),
                  why.message().c_str(), ckpt.manifest_path.c_str()));
  };

  uint64_t last_checkpoint = first_task;
  auto on_boundary = [&](const Boundary& b) -> Status {
    const uint64_t frontier = b.next_task;
    const bool done = frontier == tasks.size();
    if (frontier == first_task) {
      if (ckpt.resume && b.driver != nullptr &&
          algorithm == JoinAlgorithm::kCSJ) {
        b.driver->window().RestoreState(base.window);
      }
      // An initial checkpoint: a run killed before the first periodic
      // checkpoint still resumes instead of silently starting over.
      if (!ckpt.resume && !done) CSJ_RETURN_IF_ERROR(save_checkpoint(b));
    } else if (b.driver == nullptr) {
      CSJ_RETURN_IF_ERROR(save_checkpoint(b));  // every round boundary
    }
    if (done) return Status::OK();
    if (const Status why = interrupted(); !why.ok()) {
      return interruption_status(why, frontier, save_checkpoint(b));
    }
    if (b.driver != nullptr && ckpt.checkpoint_interval > 0 &&
        frontier - last_checkpoint >= ckpt.checkpoint_interval) {
      CSJ_RETURN_IF_ERROR(save_checkpoint(b));
      last_checkpoint = frontier;
    }
    return Status::OK();
  };

  // A sink error or budget trip ends the run without a further checkpoint:
  // the previous one stays the resume point.
  JoinStats out =
      internal::RunTaskList(tree, algorithm, task_options, sink.get(), tasks,
                            first_task, parallel, on_boundary);
  internal::ApplyStatsBase(&out, base.stats);
  if (out.status.ok()) out.status = sink->Finish();
  internal::CopyOutputCounters(*sink, &out);
  if (out.status.ok()) {
    std::remove(ckpt.manifest_path.c_str());
  }
  return out;
}

}  // namespace csj

#endif  // CSJ_CORE_CHECKPOINT_JOIN_H_
