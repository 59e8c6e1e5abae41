#ifndef CSJ_CORE_PARALLEL_JOIN_H_
#define CSJ_CORE_PARALLEL_JOIN_H_

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/similarity_join.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/metrics.h"

/// \file
/// Multi-threaded self-joins — an engineering extension beyond the
/// (single-threaded) paper, for the multi-core machines a modern deployment
/// runs on — and the one task executor that every threaded or checkpointed
/// self-join runs through.
///
/// Decomposition: the top of the Figure-3 recursion splits naturally into
/// independent units — single-subtree self-joins and qualifying subtree
/// pairs. BuildTaskList expands the root into at least
/// threads x tasks_per_thread such units (splitting the largest-looking
/// tasks first). Every task covers a disjoint slice of the pair space and
/// the union of the slices is complete, so any execution order is lossless.
///
/// Execution (RunTaskList): with threads <= 1 one driver runs every task in
/// list order straight into the caller's sink, and its CSJ(g) window
/// persists across tasks. With threads > 1 the list runs in *rounds* of
/// threads x tasks_per_thread tasks: task i goes to worker i % threads, each
/// worker owns a private driver, group window and MemorySink, and after the
/// round the buffered outputs are replayed into the caller's sink in worker
/// order. Every round is a pure function of (task list, threads), so the
/// output is deterministic for a given thread count (and task granularity):
/// byte-identical from run to run. Group composition differs from the
/// sequential run — windows are per worker and per round — which is fine:
/// the compact representation was never unique (paper, Figure 2).
///
/// Boundaries: a callback runs at the start and after every task (serial)
/// or round (parallel). CheckpointedSelfJoin (core/checkpoint_join.h) saves
/// its manifest and polls for interruption there; a non-OK return stops the
/// run at that boundary.
///
/// Failure handling: a worker that throws, or whose driver reports a non-OK
/// status, trips the round's ExecContext with that first error; its
/// siblings see the trip at their next node visit and unwind. A failed
/// round is never replayed — the caller's sink receives whole rounds only —
/// and `JoinStats::status` carries the first error. Errors from the
/// caller's sink during the replay likewise abort it. Failpoint
/// `parallel_join.worker` injects a worker exception for testing this path.
///
/// Caveats: threads > 1 requires a thread-safe-for-reads tree (all
/// in-memory trees qualify, and so does PagedTree — its BufferPool block
/// cache is concurrency-safe). Node-access tracking is single-threaded: a
/// non-null options.tracker with threads > 1 is rejected with an
/// InvalidArgument status in `JoinStats::status`.

namespace csj {

/// Parallel-execution knobs.
struct ParallelJoinOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() for
  /// ParallelSelfJoin. One thread runs every task on a single driver.
  int threads = 0;
  /// Task granularity: the task list targets threads * tasks_per_thread
  /// entries, and a parallel round spans that many tasks.
  int tasks_per_thread = 16;
};

namespace internal {

/// Task-list target size, which is also the span of one parallel round.
inline size_t TaskTarget(const ParallelJoinOptions& parallel) {
  return static_cast<size_t>(std::max(parallel.threads, 1)) *
         static_cast<size_t>(std::max(parallel.tasks_per_thread, 1));
}

/// Expands the root into at least `target` independent tasks. A task whose
/// subtree already satisfies the early-stop bound is never split further
/// (splitting it would only lose grouping opportunities).
template <SpatialIndex Tree>
std::vector<typename JoinDriver<Tree, Tree>::Task> BuildTaskList(
    const Tree& tree, double eps, size_t target,
    const ExecContext* exec = nullptr) {
  using Task = typename JoinDriver<Tree, Tree>::Task;
  std::vector<Task> tasks;
  if (tree.Root() == kInvalidNode || tree.size() < 2) return tasks;
  tasks.push_back(Task{tree.Root(), kInvalidNode});

  // Breadth-style expansion: repeatedly split splittable tasks until the
  // target count is reached or nothing can be split.
  size_t scan = 0;
  while (tasks.size() < target && scan < tasks.size()) {
    const Task task = tasks[scan];
    const bool self = task.second == kInvalidNode;
    const bool splittable =
        self
            ? !tree.IsLeaf(task.first) && tree.MaxDiameter(task.first) > eps
            : !tree.IsLeaf(task.first) && !tree.IsLeaf(task.second) &&
                  tree.MaxDiameter(task.first, task.second) > eps;
    if (!splittable) {
      ++scan;
      continue;
    }
    // Replace the task by its children tasks.
    tasks[scan] = tasks.back();
    tasks.pop_back();
    if (self) {
      const auto children = TreeChildren(tree, task.first, exec);
      for (size_t i = 0; i < children.size(); ++i) {
        tasks.push_back(Task{children[i], kInvalidNode});
        for (size_t j = i + 1; j < children.size(); ++j) {
          if (tree.MinDistance(children[i], children[j]) <= eps) {
            tasks.push_back(Task{children[i], children[j]});
          }
        }
      }
    } else {
      const auto c1 = TreeChildren(tree, task.first, exec);
      const auto c2 = TreeChildren(tree, task.second, exec);
      for (NodeId a : c1) {
        for (NodeId b : c2) {
          if (tree.MinDistance(a, b) <= eps) tasks.push_back(Task{a, b});
        }
      }
    }
    // Do not advance `scan`: the swapped-in task may itself be splittable.
  }
  return tasks;
}

/// Why `threads` workers cannot run this join, or OK. Trackers are
/// single-threaded; silently ignoring one would misreport the access counts
/// the caller asked for.
template <SpatialIndex Tree>
Status CheckParallelSupported(const JoinOptions& options, int threads) {
  if (threads <= 1) return Status::OK();
  if (options.tracker != nullptr) {
    return Status::InvalidArgument(
        "node-access tracking (options.tracker) is not supported in "
        "parallel mode; run with one thread instead");
  }
  if (!Tree::kThreadSafeReads) {
    return Status::InvalidArgument(
        "this tree type is not safe for concurrent reads; run with one "
        "thread");
  }
  return Status::OK();
}

/// Where a RunTaskList run stands at a boundary.
template <typename Tree>
struct TaskBoundary {
  /// Tasks [0, next_task) have reached the sink.
  uint64_t next_task = 0;
  /// This run's work counters and implied links so far.
  const JoinStats& work;
  /// Sink time so far (with options.measure_write_time).
  double write_seconds = 0.0;
  /// The serial driver, whose CSJ(g) window spans the boundary; null in
  /// parallel mode, where every round flushes its windows.
  JoinDriver<Tree, Tree>* driver = nullptr;
};

/// Runs tasks[first_task..] into `sink`; see the file comment. `threads` in
/// `parallel` must already be resolved (<= 1 runs serially).
/// `on_boundary(const TaskBoundary<Tree>&) -> Status` is called at the
/// start (where it may seed the serial driver, e.g. restore a checkpointed
/// window) and after every task or round; a non-OK return stops the run
/// there and becomes the returned status. The output counters always
/// mirror the sink; `elapsed_seconds` is this call's wall time.
template <SpatialIndex Tree, typename OnBoundary>
JoinStats RunTaskList(
    const Tree& tree, JoinAlgorithm algorithm, const JoinOptions& options,
    JoinSink* sink,
    const std::vector<typename JoinDriver<Tree, Tree>::Task>& tasks,
    uint64_t first_task, const ParallelJoinOptions& parallel,
    OnBoundary&& on_boundary) {
  using Driver = JoinDriver<Tree, Tree>;
  WallTimer timer;
  const int threads = std::max(parallel.threads, 1);

  JoinStats total;
  total.algorithm = algorithm;
  total.epsilon = options.epsilon;
  total.window_size =
      algorithm == JoinAlgorithm::kCSJ ? options.window_size : 0;
  auto finish = [&](const Status& status) {
    total.status = status.ok() ? sink->error() : status;
    CopyOutputCounters(*sink, &total);
    total.elapsed_seconds = timer.ElapsedSeconds();
    return total;
  };
  if (!sink->error().ok()) {
    // The sink is already dead (e.g. its output file never opened): don't
    // burn a traversal producing output nobody can accept.
    return finish(sink->error());
  }

  if (threads == 1) {
    Driver driver(tree, tree, /*self_join=*/true, algorithm, options, sink);
    auto boundary = [&](uint64_t next) {
      return on_boundary(TaskBoundary<Tree>{next, driver.stats(),
                                            driver.write_seconds_so_far(),
                                            &driver});
    };
    Status stop = boundary(first_task);
    for (uint64_t next = first_task; stop.ok() && next < tasks.size();) {
      driver.RunTask(tasks[static_cast<size_t>(next++)]);
      // Sink error or a governance trip: Finalize reports it.
      if (driver.aborted()) break;
      stop = boundary(next);
    }
    // A stopped run keeps its window pending: the boundary owner (e.g. a
    // checkpoint) already captured it.
    if (stop.ok()) driver.FlushWindow();
    JoinStats out = driver.Finalize(timer);
    if (!stop.ok()) out.status = stop;
    return out;
  }

  const Status supported = CheckParallelSupported<Tree>(options, threads);
  if constexpr (!Tree::kThreadSafeReads) {
    return finish(supported);
  } else {
    if (!supported.ok()) return finish(supported);
    const uint64_t round_span = TaskTarget(parallel);
    CSJ_METRIC_COUNT("parallel.joins", 1);
    CSJ_METRIC_COUNT("parallel.workers", static_cast<uint64_t>(threads));
    CSJ_METRIC_COUNT("parallel.tasks_total", tasks.size() - first_task);

    // Worker governance: options.deadline_ms counts from here, not from
    // each round's driver construction.
    ExecContext run_ctx;
    run_ctx.SetParent(options.exec);
    run_ctx.SetDeadlineAfterMs(options.deadline_ms);

    Status stop = on_boundary(TaskBoundary<Tree>{first_task, total, 0.0});
    for (uint64_t next = first_task; stop.ok() && next < tasks.size();) {
      const uint64_t end = std::min<uint64_t>(next + round_span, tasks.size());
      // The first failing worker trips the round context, which stops its
      // siblings at their next node visit.
      ExecContext round_ctx;
      round_ctx.SetParent(&run_ctx);
      JoinOptions worker_options = options;
      worker_options.deadline_ms = 0;
      worker_options.exec = &round_ctx;
      std::vector<std::unique_ptr<MemorySink>> worker_sinks;
      std::vector<JoinStats> worker_stats(static_cast<size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        worker_sinks.push_back(std::make_unique<MemorySink>(sink->id_width()));
      }
      {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t) {
          pool.emplace_back([&, t] {
            // A throwing worker must not std::terminate the process.
            CSJ_METRIC_SCOPED_TIMER("parallel.worker_drain_ns");
            try {
              if (CSJ_FAILPOINT("parallel_join.worker")) {
                throw std::runtime_error("injected worker fault");
              }
              Driver driver(tree, tree, /*self_join=*/true, algorithm,
                            worker_options,
                            worker_sinks[static_cast<size_t>(t)].get());
              WallTimer worker_timer;
              uint64_t ran = 0;
              for (uint64_t i = next + static_cast<uint64_t>(t);
                   i < end && !driver.aborted();
                   i += static_cast<uint64_t>(threads), ++ran) {
                driver.RunTask(tasks[static_cast<size_t>(i)]);
              }
              driver.FlushWindow();
              CSJ_METRIC_HIST("parallel.tasks_per_worker", ran);
              worker_stats[static_cast<size_t>(t)] =
                  driver.Finalize(worker_timer);
              round_ctx.Trip(worker_stats[static_cast<size_t>(t)].status);
            } catch (const std::exception& e) {
              round_ctx.Trip(Status::Internal(StrFormat(
                  "parallel join worker %d failed: %s", t, e.what())));
            } catch (...) {
              round_ctx.Trip(Status::Internal(
                  StrFormat("parallel join worker %d failed with a "
                            "non-standard exception", t)));
            }
          });
        }
        for (auto& thread : pool) thread.join();
      }
      // Work counters describe the traversal, which has already happened:
      // sum them over all workers before touching the caller's sink.
      for (const JoinStats& ws : worker_stats) {
        total.distance_computations += ws.distance_computations;
        total.kernel_candidates += ws.kernel_candidates;
        total.kernel_pruned += ws.kernel_pruned;
        total.kernel_hits += ws.kernel_hits;
        total.early_stops += ws.early_stops;
        total.merge_attempts += ws.merge_attempts;
        total.merges += ws.merges;
        total.write_seconds += ws.write_seconds;
      }
      if (!round_ctx.status().ok()) {
        // The round's coverage is incomplete; replaying the survivors
        // would hand the caller a silently truncated result.
        CSJ_METRIC_COUNT("parallel.failed_joins", 1);
        stop = round_ctx.status();
        break;
      }
      // Replay in worker order. Implied links are counted only once the
      // sink confirms the write, so they mirror the sink's own counters.
      {
        CSJ_METRIC_SCOPED_TIMER("parallel.replay_ns");
        for (int t = 0; t < threads && sink->error().ok(); ++t) {
          const MemorySink& worker = *worker_sinks[static_cast<size_t>(t)];
          for (const auto& [a, b] : worker.links()) {
            if (!sink->error().ok()) break;
            sink->Link(a, b);
            if (sink->error().ok()) total.AddImpliedLink();
          }
          for (const auto& group : worker.groups()) {
            if (!sink->error().ok()) break;
            sink->Group(group);
            if (sink->error().ok()) total.AddImpliedGroup(group.size());
          }
        }
      }
      if (!sink->error().ok()) break;
      next = end;
      stop = on_boundary(TaskBoundary<Tree>{next, total, total.write_seconds});
    }
    return finish(stop);
  }
}

}  // namespace internal

/// Threaded CSJ(g) self-join into a caller-owned sink. Lossless like the
/// sequential join and deterministic for a given thread count and task
/// granularity; group composition differs from the sequential run. Returns
/// aggregated statistics (elapsed = wall time of the executor; work counters
/// summed over workers). On failure the sink holds the rounds replayed
/// before it; the caller still owns sink->Finish().
template <SpatialIndex Tree>
JoinStats ParallelSelfJoin(const Tree& tree, const JoinOptions& options,
                           JoinSink* sink,
                           ParallelJoinOptions parallel = ParallelJoinOptions()) {
  static_assert(Tree::kThreadSafeReads,
                "this tree type is not safe for concurrent reads; load it "
                "into an in-memory tree (or a PagedTree) first");
  CSJ_CHECK(sink != nullptr);
  if (parallel.threads <= 0) {
    parallel.threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  const auto tasks = internal::BuildTaskList(
      tree, options.epsilon, internal::TaskTarget(parallel), options.exec);
  return internal::RunTaskList(
      tree, JoinAlgorithm::kCSJ, options, sink, tasks, /*first_task=*/0,
      parallel,
      [](const internal::TaskBoundary<Tree>&) { return Status::OK(); });
}

}  // namespace csj

#endif  // CSJ_CORE_PARALLEL_JOIN_H_
