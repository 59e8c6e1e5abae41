#ifndef CSJBENCH_BENCH_H_
#define CSJBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/point.h"
#include "trace.h"

/// \file
/// Shared configuration and result reporting of the csjbench workloads.

namespace csjbench {

/// Dataset size of every workload: roadnet points.
inline constexpr uint64_t kNumPoints = 100000;
/// The self-join ε of each seed is calibrated so the join has this many
/// qualifying links (the density of seed 3 at ε = 0.01; see README.md).
inline constexpr uint64_t kTargetLinks = 17000000;
/// Every range query (served or in-process) asks for the neighbourhood of
/// a seeded dataset point with the radius that holds this many points (the
/// distance to its 1,000th nearest neighbour, itself included). A fixed ε
/// would let the seed's densest city cores set the p99: at ε = 0.02 the 99th
/// percentile result size ranges 2,793–4,513 over seeds 1–10.
inline constexpr size_t kRangeNeighbours = 1000;
/// Range queries `gen` prepares; runs draw from them by seed.
inline constexpr size_t kRangeQueries = 8192;

struct RangeQuery {
  csj::Point2 center;
  double radius = 0.0;
};

/// One workload run, as parsed from the command line plus the parameters
/// the `gen` step derived from the seed (params.txt).
struct Config {
  std::string workload;
  uint64_t seed = 3;
  double seconds = 20.0;
  bool trace = false;
  std::string dir;     ///< work directory holding points.txt / params.txt
  std::string points;  ///< dir + "/points.txt"
  double eps = 0.01;   ///< calibrated self-join ε
  uint64_t image_blocks = 0;  ///< blocks of the dataset's paged image
  std::vector<RangeQuery> queries;  ///< dir + "/queries.txt"
};

/// Result of one run: the metric values plus operation accounting. Prints
/// as the single JSON result line run.py relays.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why, uint64_t n = 1);
  uint64_t failed() const { return failed_; }

  /// The result line: every metric of the selected set (end-to-end, or
  /// per-layer when `trace`), in declaration order. An end-to-end metric
  /// the workload did not set marks the run incorrect.
  std::string ToJsonLine(bool trace);

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMb();

/// Generates the seed's roadnet points into `dir`/points.txt, calibrates ε,
/// measures the paged image (`dir`/params.txt) and prepares the range
/// queries (`dir`/queries.txt).
int Generate(uint64_t seed, const std::string& dir);

/// The workloads. `csj` selects roadnet-csj-binary over roadnet-ssj-text.
void RunBatch(const Config& config, bool csj, Report* report);
void RunServe(const Config& config, Report* report);

}  // namespace csjbench

#endif  // CSJBENCH_BENCH_H_
