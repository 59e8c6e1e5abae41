/// \file
/// The NVO storage scenario from the paper's introduction: an observatory
/// server must hold similarity-join results for days until the astronomer
/// retrieves them, so results should be as small as possible — and still be
/// exactly recoverable.
///
/// This example runs a join over a dense sky region, persists both the
/// standard and the compact output to disk in the paper's text format,
/// compares file sizes, then *re-loads* the compact file and expands it to
/// prove the server can reproduce every individual link on demand.
///
/// Run:  ./build/examples/nvo_storage

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/rstar_tree.h"
#include "util/format.h"

namespace {

using namespace csj;

int Main() {
  // A dense "sky survey tile": 30K sources clustered along a filament.
  const auto points = GenerateGaussianClusters<2>(30000, 20, 0.008, 4242);
  std::vector<Entry<2>> entries = ToEntries(points);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);

  JoinOptions options;
  options.epsilon = 0.01;  // cross-match radius
  const int width = IdWidthFor(entries.size());
  const std::string ssj_path = "/tmp/nvo_standard_result.txt";
  const std::string csj_path = "/tmp/nvo_compact_result.txt";

  std::printf("cross-match query: %s sources, radius %g\n",
              WithThousands(entries.size()).c_str(), options.epsilon);

  // The server answers the query twice: standard and compact.
  {
    FileSink sink(width, ssj_path);
    const JoinStats stats = StandardSimilarityJoin(tree, options, &sink);
    if (!sink.Finish().ok()) return 1;
    std::printf("standard result: %s links -> %s on disk (%.2fs)\n",
                WithThousands(stats.links).c_str(),
                HumanBytes(sink.bytes()).c_str(), stats.elapsed_seconds);
  }
  uint64_t compact_bytes = 0;
  {
    FileSink sink(width, csj_path);
    const JoinStats stats = CompactSimilarityJoin(tree, options, &sink);
    if (!sink.Finish().ok()) return 1;
    compact_bytes = sink.bytes();
    std::printf("compact result:  %s groups + %s links -> %s on disk "
                "(%.2fs)\n",
                WithThousands(stats.groups).c_str(),
                WithThousands(stats.links).c_str(),
                HumanBytes(sink.bytes()).c_str(), stats.elapsed_seconds);
  }

  // Days later the astronomer retrieves the result: the server re-reads the
  // compact file and expands it.
  auto stored = ReadJoinOutput(csj_path);
  if (!stored.ok()) {
    std::fprintf(stderr, "failed to re-read %s: %s\n", csj_path.c_str(),
                 stored.status().ToString().c_str());
    return 1;
  }
  MemorySink replay(width);
  for (const auto& [a, b] : stored->links) replay.Link(a, b);
  for (const auto& g : stored->groups) replay.Group(g);
  const auto expanded = ExpandSelfJoin(replay);

  const auto reference = BruteForceSelfJoin(entries, options.epsilon);
  const auto report = CompareLinkSets(expanded, reference);
  std::printf("\nexpansion after reload: %s distinct links; %s\n",
              WithThousands(expanded.size()).c_str(),
              report.ToString().c_str());
  const double ratio = reference.empty()
                           ? 1.0
                           : static_cast<double>(compact_bytes) /
                                 (static_cast<double>(reference.size()) *
                                  2.0 * (width + 1));
  std::printf("storage ratio: compact file is %.1f%% of the standard file.\n",
              ratio * 100.0);

  std::remove(ssj_path.c_str());
  std::remove(csj_path.c_str());
  return report.lossless() ? 0 : 1;
}

}  // namespace

int main() { return Main(); }
