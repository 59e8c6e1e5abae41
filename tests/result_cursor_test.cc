#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/brute.h"
#include "core/expand.h"
#include "core/output_stats.h"
#include "core/result_cursor.h"
#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/rstar_tree.h"
#include "util/random.h"

namespace csj {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

void WriteWholeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

TEST(TextCursorTest, ReadsLinksAndGroups) {
  const std::string path = testing::TempDir() + "/csj_cursor_text.txt";
  WriteWholeFile(path, "01 02\n03 04 05\n\n06 07\n");
  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ((*cursor)->format(), OutputFormat::kText);
  EXPECT_EQ((*cursor)->declared_id_width(), 0);

  ASSERT_TRUE((*cursor)->Next());
  EXPECT_FALSE((*cursor)->record().is_group);
  EXPECT_EQ((*cursor)->record().ids[0], 1u);
  EXPECT_EQ((*cursor)->record().ids[1], 2u);
  ASSERT_TRUE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->record().is_group);
  EXPECT_EQ((*cursor)->record().ids.size(), 3u);
  ASSERT_TRUE((*cursor)->Next());  // blank line skipped
  EXPECT_FALSE((*cursor)->record().is_group);
  EXPECT_FALSE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->status().ok());
  EXPECT_EQ((*cursor)->links_read(), 2u);
  EXPECT_EQ((*cursor)->groups_read(), 1u);
  std::remove(path.c_str());
}

TEST(TextCursorTest, MissingTrailingNewlineStillParses) {
  const std::string path = testing::TempDir() + "/csj_cursor_nonl.txt";
  WriteWholeFile(path, "1 2\n3 4 5");
  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE((*cursor)->Next());
  ASSERT_TRUE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->record().is_group);
  EXPECT_FALSE((*cursor)->Next());
  EXPECT_TRUE((*cursor)->status().ok());
  std::remove(path.c_str());
}

TEST(TextCursorTest, SingletonLineIsAnError) {
  const std::string path = testing::TempDir() + "/csj_cursor_bad.txt";
  WriteWholeFile(path, "1 2\n7\n3 4\n");
  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE((*cursor)->Next());
  EXPECT_FALSE((*cursor)->Next());
  const Status status = (*cursor)->status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(":2:"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(TextCursorTest, MatchesReadJoinOutput) {
  const std::string path = testing::TempDir() + "/csj_cursor_equiv.txt";
  WriteWholeFile(path, "001 002\n003 004 005\n006 007 008 009\n010 011\n");
  auto output = ReadJoinOutput(path);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->links.size(), 2u);
  EXPECT_EQ(output->groups.size(), 2u);

  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok());
  size_t links = 0, groups = 0;
  while ((*cursor)->Next()) {
    ((*cursor)->record().is_group ? groups : links)++;
  }
  ASSERT_TRUE((*cursor)->status().ok());
  EXPECT_EQ(links, output->links.size());
  EXPECT_EQ(groups, output->groups.size());
  std::remove(path.c_str());
}

TEST(CursorTest, MissingFileIsNotFound) {
  auto cursor = OpenResultCursor("/nonexistent-dir-xyz/result.txt");
  EXPECT_FALSE(cursor.ok());
}

TEST(CursorStatsTest, CursorStatsMatchVectorStats) {
  const std::string path = testing::TempDir() + "/csj_cursor_stats.txt";
  WriteWholeFile(path, "01 02\n03 04 05\n03 05 06 07\n");
  auto output = ReadJoinOutput(path);
  ASSERT_TRUE(output.ok());
  const OutputStats expected =
      ComputeOutputStats(output->links, output->groups, 2);

  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok());
  auto actual = ComputeOutputStats(cursor->get(), 2);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual->links, expected.links);
  EXPECT_EQ(actual->groups, expected.groups);
  EXPECT_EQ(actual->implied_links, expected.implied_links);
  EXPECT_EQ(actual->output_bytes, expected.output_bytes);
  EXPECT_EQ(actual->distinct_members, expected.distinct_members);

  // Width 0 infers from the data (max id 7 -> width 1).
  auto inferred_cursor = OpenResultCursor(path);
  ASSERT_TRUE(inferred_cursor.ok());
  auto inferred = ComputeOutputStats(inferred_cursor->get());
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred->output_bytes,
            (2 * expected.links + expected.group_member_total) * 2);
  std::remove(path.c_str());
}

/// Property test: a real join materialized through the binary pipeline must
/// expand to exactly the link set the same join produced in memory.
TEST(RoundTripPropertyTest, RandomJoinsSurviveBinaryRoundTrip) {
  Rng rng(2026);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 50 + rng.UniformInt(uint64_t{400});
    const double eps = 0.02 + rng.UniformDouble() * 0.1;
    const auto points =
        GenerateGaussianClusters<2>(n, 4, 0.03, 1000 + trial);
    const auto entries = ToEntries(points);
    RStarTree<2> tree;
    for (const auto& e : entries) tree.Insert(e.id, e.point);
    JoinOptions options;
    options.epsilon = eps;
    options.window_size = 10;

    MemorySink memory(IdWidthFor(n));
    CompactSimilarityJoin(tree, options, &memory);

    const std::string path = testing::TempDir() + "/csj_roundtrip_prop.bin";
    auto sink = MakeSink(OutputSpec::File(path, n, OutputFormat::kBinary));
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    CompactSimilarityJoin(tree, options, sink->get());
    ASSERT_TRUE((*sink)->Finish().ok());

    auto cursor = OpenResultCursor(path);
    ASSERT_TRUE(cursor.ok());
    auto expanded = ExpandSelfJoin(cursor->get());
    ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
    EXPECT_EQ(*expanded, ExpandSelfJoin(memory))
        << "trial " << trial << " n=" << n << " eps=" << eps;
    std::remove(path.c_str());
  }
}

/// Decoding a binary result through a text sink of the same width must
/// reproduce the directly-written text file byte for byte.
TEST(ReplayTest, BinaryDecodesToCanonicalTextByteForByte) {
  const size_t n = 600;
  const auto points = GenerateGaussianClusters<2>(n, 3, 0.02, 99);
  const auto entries = ToEntries(points);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.05;
  options.window_size = 10;

  const std::string text_path = testing::TempDir() + "/csj_replay.txt";
  const std::string bin_path = testing::TempDir() + "/csj_replay.bin";
  const std::string decoded_path = testing::TempDir() + "/csj_replay_dec.txt";

  auto text_sink = MakeSinkOrDie(OutputSpec::File(text_path, n));
  CompactSimilarityJoin(tree, options, text_sink.get());
  ASSERT_TRUE(text_sink->Finish().ok());

  auto bin_sink =
      MakeSinkOrDie(OutputSpec::File(bin_path, n, OutputFormat::kBinary));
  CompactSimilarityJoin(tree, options, bin_sink.get());
  ASSERT_TRUE(bin_sink->Finish().ok());

  auto cursor = OpenResultCursor(bin_path);
  ASSERT_TRUE(cursor.ok());
  auto decoded = MakeSinkOrDie(OutputSpec::File(decoded_path, n));
  ASSERT_TRUE(ReplayResult(cursor->get(), decoded.get()).ok());
  ASSERT_TRUE(decoded->Finish().ok());

  EXPECT_EQ(ReadWholeFile(decoded_path), ReadWholeFile(text_path));
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  std::remove(decoded_path.c_str());
}

TEST(CursorExpandTest, CursorExpansionMatchesMemoryExpansion) {
  const std::string path = testing::TempDir() + "/csj_cursor_expand.txt";
  WriteWholeFile(path, "1 2\n2 3 4\n");
  MemorySink memory(1);
  memory.Link(1, 2);
  const std::vector<PointId> group = {2, 3, 4};
  memory.Group(group);

  auto cursor = OpenResultCursor(path);
  ASSERT_TRUE(cursor.ok());
  auto expanded = ExpandSelfJoin(cursor->get());
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*expanded, ExpandSelfJoin(memory));
  std::remove(path.c_str());
}

template <int D>
std::vector<Entry<D>> RandomEntries(size_t n, uint64_t seed) {
  auto points = GenerateUniform<D>(n, seed);
  std::vector<Entry<D>> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = Entry<D>{static_cast<PointId>(i), points[i]};
  }
  return entries;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- Join-output reader ------------------------------------------------------------

TEST(OutputReaderTest, RoundTripThroughFileSink) {
  const auto entries = RandomEntries<2>(500, 41);
  RStarTree<2> tree;
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  JoinOptions options;
  options.epsilon = 0.05;

  const std::string path = TempPath("join_output.txt");
  FileSink sink(IdWidthFor(entries.size()), path);
  CompactSimilarityJoin(tree, options, &sink);
  ASSERT_TRUE(sink.Finish().ok());

  auto loaded = ReadJoinOutput(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Re-expansion from disk equals the brute-force join.
  MemorySink replay(IdWidthFor(entries.size()));
  for (const auto& [a, b] : loaded->links) replay.Link(a, b);
  for (const auto& g : loaded->groups) replay.Group(g);
  EXPECT_TRUE(CompareLinkSets(ExpandSelfJoin(replay),
                              BruteForceSelfJoin(entries, options.epsilon))
                  .lossless());
}

TEST(OutputReaderTest, ParsesLinksAndGroups) {
  const std::string path = TempPath("join_mixed.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("0001 0002\n0003 0004 0005\n0006 0007\n", f);
  std::fclose(f);
  auto output = ReadJoinOutput(path);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->links.size(), 2u);
  EXPECT_EQ(output->groups.size(), 1u);
  EXPECT_EQ(output->groups[0], (std::vector<PointId>{3, 4, 5}));
  EXPECT_EQ(output->ImpliedLinks(), 2u + 3u);
}

TEST(OutputReaderTest, MissingTrailingNewlineHandled) {
  const std::string path = TempPath("join_nonewline.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1 2\n3 4", f);
  std::fclose(f);
  auto output = ReadJoinOutput(path);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->links.size(), 2u);
}

TEST(OutputReaderTest, SingletonLineRejected) {
  const std::string path = TempPath("join_singleton.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1 2\n7\n", f);
  std::fclose(f);
  EXPECT_EQ(ReadJoinOutput(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OutputReaderTest, JunkRejected) {
  const std::string path = TempPath("join_junk.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1 2\nhello\n", f);
  std::fclose(f);
  EXPECT_EQ(ReadJoinOutput(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OutputReaderTest, EmptyFileOk) {
  const std::string path = TempPath("join_empty.txt");
  std::fclose(std::fopen(path.c_str(), "w"));
  auto output = ReadJoinOutput(path);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->links.size() + output->groups.size(), 0u);
}

}  // namespace
}  // namespace csj
