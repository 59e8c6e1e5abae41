#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/similarity_join.h"
#include "core/sink.h"
#include "data/generators.h"
#include "index/bulk_load.h"
#include "index/rstar_tree.h"
#include "index/rtree.h"
#include "index/tree_io.h"

namespace csj {
namespace {

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

// --- Tree serialization ---------------------------------------------------------

TEST(TreeIoTest, RoundTripPreservesStructure) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(3000, 21);
  for (const auto& e : entries) tree.Insert(e.id, e.point);

  const std::string path = TempPath("tree_roundtrip.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());

  RStarTree<2> loaded;
  ASSERT_TRUE(LoadTree(&loaded, path).ok());
  loaded.CheckInvariants();
  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.NodeCount(), tree.NodeCount());
  EXPECT_EQ(loaded.Height(), tree.Height());

  // Joins on the loaded tree produce identical output (same structure, same
  // traversal).
  JoinOptions options;
  options.epsilon = 0.03;
  MemorySink a(4), b(4);
  CompactSimilarityJoin(tree, options, &a);
  CompactSimilarityJoin(loaded, options, &b);
  EXPECT_EQ(a.links(), b.links());
  EXPECT_EQ(a.groups(), b.groups());
}

TEST(TreeIoTest, RoundTripAfterRemovals) {
  RTree<2> tree;
  auto entries = RandomEntries<2>(800, 23);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Remove(entries[i].id, entries[i].point));
  }
  const std::string path = TempPath("tree_removed.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  RTree<2> loaded;
  ASSERT_TRUE(LoadTree(&loaded, path).ok());
  loaded.CheckInvariants();
  EXPECT_EQ(loaded.size(), 600u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(loaded.Contains(entries[i].id, entries[i].point), i >= 200);
  }
}

TEST(TreeIoTest, EmptyTreeRoundTrips) {
  RStarTree<2> tree;
  const std::string path = TempPath("tree_empty.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  RStarTree<2> loaded;
  ASSERT_TRUE(LoadTree(&loaded, path).ok());
  EXPECT_TRUE(loaded.empty());
}

TEST(TreeIoTest, PackedTreeRoundTrips) {
  RStarTree<3> tree;
  PackStr(&tree, RandomEntries<3>(5000, 31));
  const std::string path = TempPath("tree_packed.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  RStarTree<3> loaded;
  ASSERT_TRUE(LoadTree(&loaded, path).ok());
  loaded.CheckInvariants();
  EXPECT_EQ(loaded.Stats().num_nodes, tree.Stats().num_nodes);
}

TEST(TreeIoTest, LoadIntoNonEmptyTreeFails) {
  RStarTree<2> tree;
  tree.Insert(0, Point2{{0.5, 0.5}});
  const std::string path = TempPath("tree_nonempty.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  const Status status = LoadTree(&tree, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(TreeIoTest, FanoutMismatchRejected) {
  RStarOptions small;
  small.max_fanout = 8;
  small.min_fanout = 3;
  RStarTree<2> tree(small);
  tree.Insert(0, Point2{{0.5, 0.5}});
  const std::string path = TempPath("tree_fanout.csjt");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  RStarTree<2> loaded;  // default fanout 64
  const Status status = LoadTree(&loaded, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(TreeIoTest, GarbageFileRejected) {
  const std::string path = TempPath("tree_garbage.csjt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a tree", f);
  std::fclose(f);
  RStarTree<2> loaded;
  const Status status = LoadTree(&loaded, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(TreeIoTest, MissingFileIsNotFound) {
  RStarTree<2> loaded;
  EXPECT_EQ(LoadTree(&loaded, "/no/such/tree.csjt").code(),
            StatusCode::kNotFound);
}

// --- Checksum matrix (CSJTREE2) ---------------------------------------------

std::vector<char> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<char> bytes;
  char chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// Saves a small tree and returns the raw v2 file bytes.
std::vector<char> SavedTreeBytes(const std::string& path) {
  RStarTree<2> tree;
  for (const auto& e : RandomEntries<2>(400, 77)) tree.Insert(e.id, e.point);
  EXPECT_TRUE(SaveTree(tree, path).ok());
  return ReadFileBytes(path);
}

TEST(TreeIoTest, TruncationAtAnyOffsetIsDataLoss) {
  const std::string path = TempPath("tree_truncate.csjt");
  const std::vector<char> bytes = SavedTreeBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Mid-magic, mid-checksum, mid-header, mid-body, and one byte short: every
  // cut must be reported as clean data loss, never a crash or silent load.
  const size_t cuts[] = {4,  10, 20, bytes.size() / 2, bytes.size() - 1};
  for (const size_t cut : cuts) {
    const std::string cut_path = TempPath("tree_truncate_cut.csjt");
    WriteFileBytes(cut_path,
                   std::vector<char>(bytes.begin(), bytes.begin() + cut));
    RStarTree<2> loaded;
    const Status status = LoadTree(&loaded, cut_path);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << status.ToString();
  }
}

TEST(TreeIoTest, BitFlipAnywhereAfterMagicIsDataLoss) {
  const std::string path = TempPath("tree_bitflip.csjt");
  const std::vector<char> bytes = SavedTreeBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Flips in the stored checksum (offset 8..11), the header and the node
  // payload must all fail the CRC check with a descriptive message.
  const size_t flips[] = {8, 12, 17, 30, bytes.size() / 2, bytes.size() - 1};
  for (const size_t offset : flips) {
    std::vector<char> corrupt = bytes;
    corrupt[offset] ^= 0x20;
    const std::string flip_path = TempPath("tree_bitflip_one.csjt");
    WriteFileBytes(flip_path, corrupt);
    RStarTree<2> loaded;
    const Status status = LoadTree(&loaded, flip_path);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "flip at " << offset << ": " << status.ToString();
    EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
        << status.ToString();
  }
}

TEST(TreeIoTest, CorruptMagicIsInvalidArgumentNotDataLoss) {
  const std::string path = TempPath("tree_badmagic.csjt");
  std::vector<char> bytes = SavedTreeBytes(path);
  bytes[0] ^= 0x01;  // no longer CSJTREE1/2
  WriteFileBytes(path, bytes);
  RStarTree<2> loaded;
  EXPECT_EQ(LoadTree(&loaded, path).code(), StatusCode::kInvalidArgument);
}

/// Rewrites a v2 file as the historical un-checksummed v1 format: same body,
/// "CSJTREE1" magic, no CRC word.
std::vector<char> AsV1(const std::vector<char>& v2_bytes) {
  std::vector<char> v1(8 + (v2_bytes.size() - 12));
  std::memcpy(v1.data(), "CSJTREE1", 8);
  std::memcpy(v1.data() + 8, v2_bytes.data() + 12, v2_bytes.size() - 12);
  return v1;
}

TEST(TreeIoTest, VersionOneFilesRemainReadable) {
  RStarTree<2> tree;
  const auto entries = RandomEntries<2>(400, 78);
  for (const auto& e : entries) tree.Insert(e.id, e.point);
  const std::string v2_path = TempPath("tree_v2.csjt");
  ASSERT_TRUE(SaveTree(tree, v2_path).ok());

  const std::string v1_path = TempPath("tree_v1.csjt");
  WriteFileBytes(v1_path, AsV1(ReadFileBytes(v2_path)));

  RStarTree<2> loaded;
  ASSERT_TRUE(LoadTree(&loaded, v1_path).ok());
  loaded.CheckInvariants();
  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.NodeCount(), tree.NodeCount());
  for (const auto& e : entries) {
    EXPECT_TRUE(loaded.Contains(e.id, e.point));
  }
}

TEST(TreeIoTest, VersionOneTruncationIsIoError) {
  // v1 has no checksum, so truncation surfaces as the historical kIoError
  // from the body parser rather than kDataLoss.
  const std::string v2_path = TempPath("tree_v1trunc_src.csjt");
  const std::vector<char> v1 = AsV1(SavedTreeBytes(v2_path));
  const std::string v1_path = TempPath("tree_v1trunc.csjt");
  WriteFileBytes(v1_path,
                 std::vector<char>(v1.begin(), v1.begin() + v1.size() / 2));
  RStarTree<2> loaded;
  EXPECT_EQ(LoadTree(&loaded, v1_path).code(), StatusCode::kIoError);
}

TEST(TreeIoTest, PeekReadsBothVersions) {
  RStarOptions opts;
  opts.max_fanout = 8;
  opts.min_fanout = 3;
  RStarTree<2> tree(opts);
  for (const auto& e : RandomEntries<2>(100, 79)) tree.Insert(e.id, e.point);
  const std::string v2_path = TempPath("tree_peek_v2.csjt");
  ASSERT_TRUE(SaveTree(tree, v2_path).ok());
  const std::string v1_path = TempPath("tree_peek_v1.csjt");
  WriteFileBytes(v1_path, AsV1(ReadFileBytes(v2_path)));

  for (const std::string& path : {v2_path, v1_path}) {
    auto info = PeekTreeFile(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->dim, 2u);
    EXPECT_EQ(info->max_fanout, 8u);
    EXPECT_EQ(info->min_fanout, 3u);
    EXPECT_EQ(info->entries, 100u);
  }
}

}  // namespace
}  // namespace csj
