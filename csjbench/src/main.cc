/// \file
/// csjbench — the repository benchmark's measuring program. run.py builds
/// it and drives two steps per run, each in its own process so the timed
/// process's peak memory is the program's own:
///
///   csjbench gen --seed S --dir D
///       roadnet points for seed S, the calibrated ε and the paged image's
///       block count, written to D/points.txt and D/params.txt
///   csjbench run --workload W --seed S --seconds T --trace 0|1 --dir D
///       runs workload W on D's inputs and prints one JSON result line
///
/// Workloads: roadnet-ssj-text, roadnet-csj-binary, serve-range (README.md).

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "csj.h"

namespace csjbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0. Every workload measures every one of them
/// (README.md, "End-to-end metrics").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"join_s", "s"},
    {"bytes_per_link", "B/link"}, {"peak_rss_mb", "MB"},
    {"range_p50_ms", "ms"},    {"range_p99_ms", "ms"},
    {"range_req_per_s", "1/s"},
};

/// Printed with --trace 1. A layer the workload does not exercise reads 0
/// (README.md, "Per-layer metrics").
constexpr MetricDef kPerLayer[] = {
    {"host.nproc", "count"},
    {"data.load_points_s", "s"},
    {"index.pack_s", "s"},
    {"index.nodes", "count"},
    {"index.leaves", "count"},
    {"index.height", "count"},
    {"core.join_none_s", "s"},
    {"core.sink_io_s", "s"},
    {"core.window_s", "s"},
    {"core.finish_s", "s"},
    {"core.node_visits", "count"},
    {"core.distance_computations", "count"},
    {"core.early_stops", "count"},
    {"core.groups", "count"},
    {"core.links", "count"},
    {"core.distinct_links", "count"},
    {"core.merge_attempts", "count"},
    {"core.merges", "count"},
    {"core.merge_ratio", "ratio"},
    {"core.readback_s", "s"},
    {"core.readback_records", "count"},
    {"geom.kernel_invocations", "count"},
    {"geom.kernel_candidates", "count"},
    {"geom.kernel_pruned", "count"},
    {"geom.kernel_hits", "count"},
    {"geom.kernel_hit_ratio", "ratio"},
    {"geom.kernel_isa", "enum"},
    {"storage.output_appends", "count"},
    {"storage.output_bytes", "B"},
    {"storage.bytes_per_append", "B"},
    {"storage.binary_blocks", "count"},
    {"storage.block_writer_flushed_bytes", "B"},
    {"storage.image_blocks", "count"},
    {"storage.pool_blocks", "count"},
    {"storage.pool_requests", "count"},
    {"storage.pool_misses", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"plan.sketch_s", "s"},
    {"serve.registry_load_s", "s"},
    {"serve.header_p50_ms", "ms"},
    {"serve.stream_p50_ms", "ms"},
    {"serve.stream_p99_ms", "ms"},
    {"serve.ids_per_request", "count"},
    {"serve.bytes_per_request", "B"},
    {"serve.requests", "count"},
    {"serve.sessions", "count"},
    {"serve.admission_rejects", "count"},
    {"trace_overhead_pct", "%"},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "csjbench: %s\n", message.c_str());
  std::exit(2);
}

/// `--name value` flags after the subcommand.
std::string Flag(int argc, char** argv, const std::string& name,
                 const char* fallback = nullptr) {
  for (int i = 2; i + 1 < argc; i += 2) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  if (fallback == nullptr) Die("missing --" + name);
  return fallback;
}

uint64_t ParseUint(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') Die("bad " + what + ": " + text);
  return v;
}

int RunMain(int argc, char** argv) {
  Config config;
  config.workload = Flag(argc, argv, "workload");
  config.seed = ParseUint(Flag(argc, argv, "seed"), "seed");
  config.seconds = static_cast<double>(
      ParseUint(Flag(argc, argv, "seconds"), "seconds"));
  config.trace = Flag(argc, argv, "trace", "0") != "0";
  config.dir = Flag(argc, argv, "dir");
  config.points = config.dir + "/points.txt";
  std::ifstream params(config.dir + "/params.txt");
  if (!(params >> config.eps >> config.image_blocks)) {
    Die("cannot read " + config.dir + "/params.txt (run gen first)");
  }
  std::ifstream queries(config.dir + "/queries.txt");
  RangeQuery query;
  while (queries >> query.center[0] >> query.center[1] >> query.radius) {
    config.queries.push_back(query);
  }
  if (config.queries.size() != kRangeQueries) {
    Die("cannot read " + config.dir + "/queries.txt (run gen first)");
  }

  Report report;
  if (config.workload == "roadnet-ssj-text") {
    RunBatch(config, /*csj=*/false, &report);
  } else if (config.workload == "roadnet-csj-binary") {
    RunBatch(config, /*csj=*/true, &report);
  } else if (config.workload == "serve-range") {
    RunServe(config, &report);
  } else {
    Die("unknown workload: " + config.workload);
  }
  if (config.trace) {
    // Host facts, the same on every workload.
    report.Set("host.nproc", std::thread::hardware_concurrency());
    report.Set("geom.kernel_isa",
               static_cast<double>(csj::DispatchedKernelIsa()));
  }
  const std::string line = report.ToJsonLine(config.trace);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace

void Report::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  correct_ = false;
  std::fprintf(stderr, "csjbench: FAILED: %s\n", why.c_str());
}

std::string Report::ToJsonLine(bool trace) {
  std::string metrics;
  const auto emit = [&](const MetricDef& def) {
    auto it = values_.find(def.name);
    if (it == values_.end()) {
      if (!trace) Fail(std::string("end-to-end metric not measured: ") +
                       def.name);
      it = values_.emplace(def.name, 0.0).first;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += csj::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              def.name, it->second, def.unit);
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  if (attempted_ == 0) attempted_ = 1;  // the run itself
  return csj::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

int Generate(uint64_t seed, const std::string& dir) {
  using namespace csj;
  RoadNetOptions options;
  options.num_points = kNumPoints;
  options.seed = seed;
  const std::string points_path = dir + "/points.txt";
  if (Status s = SavePoints(points_path, GenerateRoadNetwork(options));
      !s.ok()) {
    Die(s.ToString());
  }
  // Calibrate on the points exactly as the program will read them.
  auto loaded = LoadPoints<2>(points_path);
  if (!loaded.ok()) Die(loaded.status().ToString());
  const std::vector<Entry<2>> entries = ToEntries(*loaded);
  RStarTree<2> tree;
  PackStr(&tree, entries);

  // ε from a seeded sample: the distance below which the sample points see
  // 2*kTargetLinks/n neighbours on average, which makes the self-join's
  // link count kTargetLinks in expectation.
  constexpr size_t kSample = 20000;
  Rng rng(seed * 7919 + 17);
  std::vector<Point2> sample(kSample);
  for (Point2& p : sample) p = entries[rng.UniformInt(entries.size())].point;
  const size_t want = static_cast<size_t>(
      2.0 * static_cast<double>(kTargetLinks) * kSample / entries.size());
  double radius = 0.01;
  std::vector<double> dist;
  for (;; radius *= 1.5) {
    dist.clear();
    for (const Point2& c : sample) {
      bool self_skipped = false;
      for (const Entry<2>& e : tree.RangeQuery(c, radius)) {
        const double d = Distance(c, e.point);
        // The sample point itself is not its own neighbour.
        if (d == 0.0 && !self_skipped) {
          self_skipped = true;
          continue;
        }
        dist.push_back(d);
      }
    }
    if (dist.size() > want) break;
  }
  std::nth_element(dist.begin(), dist.begin() + static_cast<long>(want - 1),
                   dist.end());
  const double eps = dist[want - 1];

  // Block count of the paged image the serve registry builds from these
  // points (same packing, default 4 KiB blocks).
  const std::string image = dir + "/image.tmp";
  PagedTreeOptions paged;
  if (Status s = WritePagedTree(tree, image, paged); !s.ok()) {
    Die(s.ToString());
  }
  struct stat st {};
  if (::stat(image.c_str(), &st) != 0) Die("stat " + image);
  ::unlink(image.c_str());
  const uint64_t blocks =
      (static_cast<uint64_t>(st.st_size) + paged.block_size - 1) /
      paged.block_size;

  // Range queries: seeded dataset points, each with the radius that holds
  // its kRangeNeighbours nearest points — midway to the next one, so that no
  // point sits on the boundary.
  std::ofstream queries(dir + "/queries.txt");
  queries.precision(17);
  std::vector<double> near;
  for (size_t q = 0; q < kRangeQueries; ++q) {
    const Point2 center = entries[rng.UniformInt(entries.size())].point;
    for (double r = 2.0 * eps;; r *= 1.5) {
      near.clear();
      for (const Entry<2>& e : tree.RangeQuery(center, r)) {
        near.push_back(Distance(center, e.point));
      }
      if (near.size() > kRangeNeighbours) break;
    }
    const auto kth = near.begin() + (kRangeNeighbours - 1);
    std::nth_element(near.begin(), kth, near.end());
    const double next = *std::min_element(kth + 1, near.end());
    queries << center[0] << " " << center[1] << " " << (*kth + next) / 2
            << "\n";
  }
  if (!queries.good()) Die("cannot write queries.txt");

  std::ofstream params(dir + "/params.txt");
  params.precision(17);
  params << eps << " " << blocks << "\n";
  if (!params.good()) Die("cannot write params.txt");
  std::fprintf(stderr, "csjbench gen: seed=%llu eps=%.6g image_blocks=%llu\n",
               static_cast<unsigned long long>(seed), eps,
               static_cast<unsigned long long>(blocks));
  return 0;
}

}  // namespace csjbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "gen") == 0) {
    return csjbench::Generate(
        csjbench::ParseUint(csjbench::Flag(argc, argv, "seed"), "seed"),
        csjbench::Flag(argc, argv, "dir"));
  }
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    return csjbench::RunMain(argc, argv);
  }
  std::fprintf(stderr,
               "usage: csjbench gen --seed S --dir D\n"
               "       csjbench run --workload W --seed S --seconds T "
               "--trace 0|1 --dir D\n");
  return 2;
}
