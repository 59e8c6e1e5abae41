#ifndef CSJ_CORE_OUTPUT_STATS_H_
#define CSJ_CORE_OUTPUT_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/result_cursor.h"
#include "core/sink.h"
#include "geom/point.h"

/// \file
/// Descriptive statistics over a join output: how compact is it, how are
/// group sizes distributed, how much do groups overlap. This is the
/// reporting layer behind the outlier-mining workflow (the paper: "small
/// groups could correspond to outliers") and the storage accounting of the
/// NVO scenario.

namespace csj {

/// Summary of one join output.
struct OutputStats {
  uint64_t links = 0;
  uint64_t groups = 0;
  uint64_t group_member_total = 0;   ///< sum of group sizes
  uint64_t distinct_members = 0;     ///< distinct ids appearing in groups
  uint64_t largest_group = 0;
  uint64_t smallest_group = 0;
  double mean_group_size = 0.0;

  /// Links the output implies (links + sum over groups of C(k,2); overlap
  /// double-counts, so this is an upper bound on distinct links).
  uint64_t implied_links = 0;

  /// Exact byte size in the paper's text format at the given id width.
  uint64_t output_bytes = 0;
  /// Byte size a pure link listing of implied_links would need.
  uint64_t link_listing_bytes = 0;

  /// 1 - output/link_listing: the headline saving (0 when nothing implied).
  double savings() const {
    if (link_listing_bytes == 0) return 0.0;
    return 1.0 - static_cast<double>(output_bytes) /
                     static_cast<double>(link_listing_bytes);
  }

  /// Mean number of groups each grouped id appears in (>= 1); the paper's
  /// Figure 2 discussion — groups may overlap.
  double overlap_factor() const {
    if (distinct_members == 0) return 0.0;
    return static_cast<double>(group_member_total) /
           static_cast<double>(distinct_members);
  }

  /// Histogram of group sizes in power-of-two buckets: [2], [3-4], [5-8],
  /// [9-16], ... bucket i holds sizes in (2^i, 2^(i+1)].
  std::vector<uint64_t> size_histogram;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Computes statistics for raw links + groups at a given id width.
OutputStats ComputeOutputStats(
    const std::vector<std::pair<PointId, PointId>>& links,
    const std::vector<std::vector<PointId>>& groups, int id_width);

class ResultCursor;

/// Streams a result file's statistics through a cursor without
/// materializing the output — works on text and binary results alike. If
/// `id_width` is 0, uses the width the file declares (binary) or, failing
/// that, the width of the largest id seen (the text case).
Result<OutputStats> ComputeOutputStats(ResultCursor* cursor,
                                       int id_width = 0);

/// Convenience overloads.
inline OutputStats ComputeOutputStats(const MemorySink& sink) {
  return ComputeOutputStats(sink.links(), sink.groups(), sink.id_width());
}
inline OutputStats ComputeOutputStats(const JoinOutput& output,
                                      int id_width) {
  return ComputeOutputStats(output.links, output.groups, id_width);
}

}  // namespace csj

#endif  // CSJ_CORE_OUTPUT_STATS_H_
