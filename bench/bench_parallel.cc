/// \file
/// Engineering extension: multi-threaded CSJ(g) scaling. Not in the paper
/// (2008, single-threaded); included because a production deployment would
/// insist on it. The parallel join stays lossless and is deterministic for a
/// given thread count; group composition differs from the sequential run.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/parallel_join.h"
#include "data/roadnet.h"
#include "index/bulk_load.h"

namespace csj::bench {
namespace {

void Main(const BenchArgs& args) {
  RoadNetOptions net;
  net.num_points = args.full ? 150000 : 60000;
  net.seed = 1015;
  const auto entries = ToEntries(GenerateRoadNetwork(net));
  RStarTree<2> tree;
  PackStr(&tree, entries);
  const double eps = 0.02;

  std::printf("dataset: road network, %s points, eps=%.3g, %u hardware "
              "threads\n",
              WithThousands(entries.size()).c_str(), eps,
              std::thread::hardware_concurrency());

  JoinOptions options;
  options.epsilon = eps;
  options.window_size = 10;

  double base_seconds = 0.0;
  Table table("Extension — parallel CSJ(10) scaling",
              {"threads", "time", "speedup", "bytes", "groups"});
  {
    BenchRecorder::Get().SetContext("sequential");
    auto sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats stats = CompactSimilarityJoin(tree, options, sink.get());
    BenchRecorder::Get().RecordStats(stats);
    base_seconds = stats.elapsed_seconds;
    table.AddRow({"sequential", HumanDuration(stats.elapsed_seconds), "1.00x",
                  WithThousands(sink->bytes()),
                  WithThousands(sink->num_groups())});
  }
  for (int threads : {1, 2, 4, 8}) {
    ParallelJoinOptions parallel;
    parallel.threads = threads;
    BenchRecorder::Get().SetContext(StrFormat("threads=%d", threads));
    auto sink = MakeSinkOrDie(OutputSpec::Counting(entries.size()));
    const JoinStats stats =
        ParallelSelfJoin(tree, options, sink.get(), parallel);
    BenchRecorder::Get().RecordStats(stats);
    table.AddRow({StrFormat("%d", threads),
                  HumanDuration(stats.elapsed_seconds),
                  StrFormat("%.2fx", base_seconds / stats.elapsed_seconds),
                  WithThousands(sink->bytes()),
                  WithThousands(sink->num_groups())});
  }
  EmitTable(table, args, "parallel_scaling");
  std::printf(
      "Expected: speedup well below linear. Task i runs on worker "
      "i %% threads in rounds of threads x 16 tasks, so one heavy task "
      "stalls its round (measured on a 4-core host: about 1.2-1.4x at 2 "
      "threads, 1.8-2.2x at 4 and 8; on a single-core box every row shows "
      "only the round overhead). Output is deterministic for a given thread "
      "count and its size stays within a fraction of a percent of "
      "sequential (per-worker, per-round windows lose some cross-task "
      "merges).\n");
}

}  // namespace
}  // namespace csj::bench

int main(int argc, char** argv) {
  return csj::bench::BenchMain(argc, argv, csj::bench::Main);
}
