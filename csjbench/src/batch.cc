/// \file
/// The batch workloads: roadnet-ssj-text and roadnet-csj-binary.
///
/// Each run sets up (LoadPoints + PackStr, several times), then repeats
/// join-to-file + readback + two passes of in-process range queries on the
/// same tree for the measuring window, then sets up again. Nothing is
/// served. Output correctness is checked on every readback against a
/// brute-force oracle for a seeded sample of points; the oracle and the
/// count-only join that gives the distinct link count run after peak memory
/// has been read.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "csj.h"

namespace csjbench {
namespace {

using namespace csj;

constexpr int kSetupReps = 8;  ///< before and again after the window
constexpr size_t kOracleSample = 64;
/// The in-process range queries run in passes over all of the seed's
/// queries, in one seeded order; kRangePassesPerPhase passes follow every
/// join iteration. Each query's latency is the median of its timings over
/// the passes, and the range percentiles are taken over the queries.
constexpr int kRangePassesPerPhase = 2;
constexpr size_t kMaxRangePasses = 48;     ///< cap on a run's passes
constexpr size_t kRangeCheckStride = 64;   ///< of the first pass, every 64th
                                           ///< query is checked (128)
constexpr int kWindow = 10;

uint64_t Counter(const metrics::MetricsSnapshot& snapshot,
                 const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Counter deltas of one join, for the per-layer report.
struct JoinCounters {
  uint64_t node_visits = 0;
  uint64_t kernel_invocations = 0;
  uint64_t output_appends = 0;
  uint64_t output_bytes = 0;
  uint64_t binary_blocks = 0;
  uint64_t flushed_bytes = 0;
};

JoinCounters Delta(const metrics::MetricsSnapshot& a,
                   const metrics::MetricsSnapshot& b) {
  const auto d = [&](const char* name) {
    return Counter(b, name) - Counter(a, name);
  };
  return JoinCounters{d("join.node_visits"), d("kernel.invocations"),
                      d("output_file.appends"), d("output_file.bytes"),
                      d("sink.binary_blocks"), d("block_writer.flushed_bytes")};
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace

void RunBatch(const Config& config, bool csj, Report* report) {
  Tracer tracer(config.trace);
  const JoinAlgorithm algorithm =
      csj ? JoinAlgorithm::kCSJ : JoinAlgorithm::kSSJ;
  const OutputFormat format = csj ? OutputFormat::kBinary : OutputFormat::kText;

  // --- Set-up: what `csj_tool join --points` does before it joins,
  // kSetupReps times before the window and kSetupReps times after it (after
  // peak memory has been read), so its samples bracket the run.
  std::vector<double> setup_s;
  std::vector<Entry<2>> entries;
  std::unique_ptr<RStarTree<2>> tree;
  const auto set_up = [&]() -> bool {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      tree.reset();
      entries.clear();
      entries.shrink_to_fit();
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(&tracer, "data.load_points");
        auto points = LoadPoints<2>(config.points);
        if (!points.ok()) {
          report->Fail("LoadPoints: " + points.status().ToString());
          return false;
        }
        entries = ToEntries(*points);
      }
      {
        ScopedSpan span(&tracer, "index.pack");
        tree = std::make_unique<RStarTree<2>>();
        PackStr(tree.get(), entries);
      }
      setup_s.push_back(Seconds(t0, NowNs()));
    }
    return true;
  };
  if (!set_up()) return;
  const uint64_t n = tree->size();
  const TreeStats tree_stats = tree->Stats();

  // Oracle sample: slot_of[id] is the sample slot of a sampled point.
  Rng rng(config.seed * 1000003 + (csj ? 2 : 1));
  std::vector<int> slot_of(n, -1);
  std::vector<PointId> sample_ids;
  while (sample_ids.size() < kOracleSample) {
    const PointId id = static_cast<PointId>(rng.UniformInt(n));
    if (slot_of[id] >= 0) continue;
    slot_of[id] = static_cast<int>(sample_ids.size());
    sample_ids.push_back(id);
  }

  JoinOptions options;
  options.epsilon = config.eps;
  options.window_size = kWindow;
  options.leaf_kernel = LeafKernel::kSimd;

  const std::string out_path =
      config.dir + (csj ? "/out.csj2" : "/out.txt");
  std::vector<double> join_s;
  std::vector<double> traced_join_s, untraced_join_s;
  std::vector<std::vector<PointId>> found_first;  ///< per oracle sample
  JoinStats last_stats;
  JoinCounters counters;
  uint64_t output_bytes = 0;
  uint64_t readback_records = 0;

  // In-process range queries on the same tree (no server): the index probe
  // path, closed loop, one thread. Every pass runs all of the seed's queries
  // in the same seeded order, so a query is always timed after the same
  // predecessors; a phase of kRangePassesPerPhase passes runs after every
  // timed iteration, so the passes spread over the whole window like the
  // joins do. A query's latency is the median of its timings over the
  // passes: an interrupt or a stolen time slice that lands on one timing
  // does not reach the percentiles, which rank the queries by their cost.
  // The timings live in a fixed buffer, touched up front, so the
  // measurement's memory does not vary under peak_rss_mb.
  const size_t num_queries = config.queries.size();
  std::vector<uint32_t> order(num_queries);
  for (size_t i = 0; i < num_queries; ++i) order[i] = static_cast<uint32_t>(i);
  Rng range_rng(config.seed * 1000003 + 7);
  range_rng.Shuffle(order);
  std::vector<float> range_ms(kMaxRangePasses * num_queries, 0.0f);
  size_t range_passes = 0;
  double range_seconds = 0.0;
  std::vector<std::pair<RangeQuery, std::vector<PointId>>> range_checks;
  const auto run_range_pass = [&](bool timed) {
    float* slot = range_ms.data() + range_passes * num_queries;
    const int64_t q0 = NowNs();
    for (size_t i = 0; i < num_queries; ++i) {
      const RangeQuery& query = config.queries[order[i]];
      const int64_t s = NowNs();
      const std::vector<Entry<2>> hits =
          tree->RangeQuery(query.center, query.radius);
      slot[i] = static_cast<float>(static_cast<double>(NowNs() - s) * 1e-6);
      if (timed && range_passes == 0 && i % kRangeCheckStride == 0) {
        std::vector<PointId> ids;
        for (const Entry<2>& e : hits) ids.push_back(e.id);
        std::sort(ids.begin(), ids.end());
        range_checks.emplace_back(query, std::move(ids));
      }
    }
    if (!timed) return;
    range_seconds += Seconds(q0, NowNs());
    ++range_passes;
    report->Attempt(num_queries);
  };
  // Warm-up: one untimed pass pages the query path and the tree in.
  run_range_pass(/*timed=*/false);

  // --- Measuring window: join to a file, stream it back, run a range
  // phase; repeated while another iteration fits in the window (at least
  // two, three in a traced run). In a traced run every other iteration is
  // untraced, for the overhead figure.
  const int64_t window_start = NowNs();
  const int min_iterations = config.trace ? 3 : 2;
  double iteration_s = 0.0;  ///< the longest iteration so far
  for (int iteration = 0;
       iteration < min_iterations ||
       (Seconds(window_start, NowNs()) + iteration_s <= config.seconds &&
        range_passes + kRangePassesPerPhase <= kMaxRangePasses);
       ++iteration) {
    const int64_t i0 = NowNs();
    const bool traced = config.trace && iteration % 2 == 0;
    Tracer scratch(false);
    Tracer* t = traced ? &tracer : &scratch;
    t->set_trace_id(static_cast<uint64_t>(iteration));
    report->Attempt();  // the join; the readback counts itself

    metrics::MetricsSnapshot before;
    if (traced) before = metrics::Snapshot();
    auto sink_or = MakeSink(OutputSpec::File(out_path, n, format));
    if (!sink_or.ok()) {
      report->Fail("MakeSink: " + sink_or.status().ToString());
      return;
    }
    std::unique_ptr<JoinSink> sink = std::move(sink_or).value();
    const int64_t j0 = NowNs();
    JoinStats stats;
    Status finished;
    {
      ScopedSpan span(t, "core.join");
      stats = RunSelfJoin(algorithm, *tree, options, sink.get());
      ScopedSpan finish(t, "core.finish");
      finished = sink->Finish();
    }
    const int64_t j1 = NowNs();
    if (!stats.status.ok() || !finished.ok()) {
      report->Fail("join: " + stats.status.ToString() + " / " +
                   finished.ToString());
      ::unlink(out_path.c_str());
      return;
    }
    join_s.push_back(Seconds(j0, j1));
    (traced ? traced_join_s : untraced_join_s).push_back(Seconds(j0, j1));
    if (traced) counters = Delta(before, metrics::Snapshot());
    output_bytes = sink->bytes();
    last_stats = stats;

    // Readback: every implied link, with the oracle sample's neighbours
    // collected on the way (two array loads per link). Every iteration must
    // find the same neighbours as the first one, which the oracle checks
    // later.
    std::vector<std::vector<PointId>> found(kOracleSample);
    uint64_t implied = 0;
    const int64_t r0 = NowNs();
    Status streamed;
    {
      ScopedSpan span(t, "core.readback");
      auto cursor = OpenResultCursor(out_path);
      if (!cursor.ok()) {
        streamed = cursor.status();
      } else {
        streamed = ForEachImpliedLink(cursor->get(), [&](PointId a, PointId b) {
          ++implied;
          if (slot_of[a] >= 0) found[slot_of[a]].push_back(b);
          if (slot_of[b] >= 0) found[slot_of[b]].push_back(a);
        });
        readback_records = (*cursor)->links_read() + (*cursor)->groups_read();
      }
    }
    const double readback = Seconds(r0, NowNs());
    report->Attempt();
    if (!streamed.ok()) {
      report->Fail("readback: " + streamed.ToString());
    } else if (implied != stats.ImpliedLinkUpperBound()) {
      report->Fail(StrFormat(
          "readback saw %llu implied links, join emitted %llu",
          static_cast<unsigned long long>(implied),
          static_cast<unsigned long long>(stats.ImpliedLinkUpperBound())));
    }
    for (auto& ids : found) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    if (found_first.empty()) {
      found_first = std::move(found);
    } else if (found != found_first) {
      report->Fail(StrFormat("iteration %d: readback found other neighbours "
                             "than the first one", iteration));
    }
    ::unlink(out_path.c_str());
    std::fprintf(stderr, "csjbench: iteration %d: join %.3f s, readback %.3f s\n",
                 iteration, Seconds(j0, j1), readback);
    for (int pass = 0; pass < kRangePassesPerPhase; ++pass) {
      run_range_pass(/*timed=*/true);
    }
    iteration_s = std::max(iteration_s, Seconds(i0, NowNs()));
  }
  report->Set("join_s", Median(join_s));

  // Per query, the median of its timings; percentiles over the queries
  // (num_queries / 100 of them beyond the p99).
  std::vector<double> query_ms(num_queries);
  std::vector<double> timings(range_passes);
  for (size_t i = 0; i < num_queries; ++i) {
    for (size_t pass = 0; pass < range_passes; ++pass) {
      timings[pass] = range_ms[pass * num_queries + i];
    }
    query_ms[i] = PercentileInPlace(timings, 0.5);
  }
  report->Set("range_p50_ms", PercentileInPlace(query_ms, 0.50));
  report->Set("range_p99_ms", PercentileInPlace(query_ms, 0.99));
  report->Set("range_req_per_s",
              static_cast<double>(range_passes * num_queries) / range_seconds);

  // Peak memory of the program's phases, before any verification below
  // allocates.
  report->Set("peak_rss_mb", PeakRssMb());
  if (!set_up()) return;
  report->Set("setup_s", Median(setup_s));

  // --- Verification (untimed except in a traced run, where the count-only
  // join is core.join_none_s).
  auto counting = MakeSinkOrDie(OutputSpec::Counting(n));
  const int64_t c0 = NowNs();
  const JoinStats none_stats =
      RunSelfJoin(algorithm, *tree, options, counting.get());
  const double join_none_s = Seconds(c0, NowNs());
  uint64_t distinct_links = none_stats.links;
  if (csj) {
    auto ssj_counting = MakeSinkOrDie(OutputSpec::Counting(n));
    distinct_links =
        StandardSimilarityJoin(*tree, options, ssj_counting.get()).links;
  }
  report->Set("bytes_per_link", static_cast<double>(output_bytes) /
                                    static_cast<double>(distinct_links));

  const double eps2 = config.eps * config.eps;
  for (size_t slot = 0; slot < kOracleSample; ++slot) {
    const Point2& p = entries[sample_ids[slot]].point;
    std::vector<PointId> expected;
    for (const Entry<2>& e : entries) {
      if (e.id != sample_ids[slot] && SquaredDistance(p, e.point) <= eps2) {
        expected.push_back(e.id);
      }
    }
    if (found_first[slot] != expected) {
      report->Fail(StrFormat(
          "point %u has %zu neighbours in the output, the oracle has %zu",
          sample_ids[slot], found_first[slot].size(), expected.size()));
    }
  }
  for (const auto& [query, ids] : range_checks) {
    const double r2 = query.radius * query.radius;
    std::vector<PointId> expected;
    for (const Entry<2>& e : entries) {
      if (SquaredDistance(query.center, e.point) <= r2) {
        expected.push_back(e.id);
      }
    }
    if (ids != expected) report->Fail("range query disagrees with the oracle");
  }
  if (!csj && last_stats.links != distinct_links) {
    report->Fail("SSJ emitted a different link count than the count-only run");
  }

  if (!config.trace) return;

  // --- Per-layer report.
  // CSJ none − N-CSJ none on the same tree: the window merge's cost on
  // this dataset (measured on both batch workloads; SSJ runs no window).
  double csj_none_s = join_none_s;
  if (!csj) {
    auto csj_counting = MakeSinkOrDie(OutputSpec::Counting(n));
    const int64_t c1 = NowNs();
    CompactSimilarityJoin(*tree, options, csj_counting.get());
    csj_none_s = Seconds(c1, NowNs());
  }
  auto ncsj_counting = MakeSinkOrDie(OutputSpec::Counting(n));
  const int64_t w0 = NowNs();
  NaiveCompactJoin(*tree, options, ncsj_counting.get());
  const double window_s = csj_none_s - Seconds(w0, NowNs());
  const JoinStats& s = last_stats;
  report->Set("data.load_points_s", Median(tracer.Durations("data.load_points")));
  report->Set("index.pack_s", Median(tracer.Durations("index.pack")));
  report->Set("index.nodes", static_cast<double>(tree_stats.num_nodes));
  report->Set("index.leaves", static_cast<double>(tree_stats.num_leaves));
  report->Set("index.height", tree_stats.height);
  report->Set("core.join_none_s", join_none_s);
  // The join span's self time excludes its Finish() child, which
  // core.finish_s reports: join_s ≈ join_none_s + sink_io_s + finish_s.
  const double join_self =
      tracer.SelfSeconds().at("core.join") /
      static_cast<double>(traced_join_s.size());
  report->Set("core.sink_io_s", join_self - join_none_s);
  report->Set("core.window_s", window_s);
  report->Set("core.finish_s", Median(tracer.Durations("core.finish")));
  report->Set("core.node_visits", static_cast<double>(counters.node_visits));
  report->Set("core.distance_computations",
              static_cast<double>(s.distance_computations));
  report->Set("core.early_stops", static_cast<double>(s.early_stops));
  report->Set("core.groups", static_cast<double>(s.groups));
  report->Set("core.links", static_cast<double>(s.links));
  report->Set("core.distinct_links", static_cast<double>(distinct_links));
  report->Set("core.merge_attempts", static_cast<double>(s.merge_attempts));
  report->Set("core.merges", static_cast<double>(s.merges));
  report->Set("core.merge_ratio",
              s.merge_attempts == 0 ? 0.0
                                    : static_cast<double>(s.merges) /
                                          static_cast<double>(s.merge_attempts));
  report->Set("core.readback_s", Median(tracer.Durations("core.readback")));
  report->Set("core.readback_records", static_cast<double>(readback_records));
  report->Set("geom.kernel_invocations",
              static_cast<double>(counters.kernel_invocations));
  report->Set("geom.kernel_candidates",
              static_cast<double>(s.kernel_candidates));
  report->Set("geom.kernel_pruned", static_cast<double>(s.kernel_pruned));
  report->Set("geom.kernel_hits", static_cast<double>(s.kernel_hits));
  report->Set("geom.kernel_hit_ratio",
              s.kernel_candidates == 0
                  ? 0.0
                  : static_cast<double>(s.kernel_hits) /
                        static_cast<double>(s.kernel_candidates));
  report->Set("storage.output_appends",
              static_cast<double>(counters.output_appends));
  report->Set("storage.output_bytes", static_cast<double>(counters.output_bytes));
  report->Set("storage.bytes_per_append",
              counters.output_appends == 0
                  ? 0.0
                  : static_cast<double>(counters.output_bytes) /
                        static_cast<double>(counters.output_appends));
  report->Set("storage.binary_blocks",
              static_cast<double>(counters.binary_blocks));
  report->Set("storage.block_writer_flushed_bytes",
              static_cast<double>(counters.flushed_bytes));
  report->Set("storage.image_blocks", static_cast<double>(config.image_blocks));
  const double untraced = Median(untraced_join_s);
  report->Set("trace_overhead_pct",
              untraced == 0.0 ? 0.0
                              : 100.0 * (Median(traced_join_s) - untraced) /
                                    untraced);
}

}  // namespace csjbench
