#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <string>
#include <vector>

#include "core/sink.h"
#include "util/random.h"

namespace csj {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

TEST(SinkTest, IdWidthFor) {
  EXPECT_EQ(IdWidthFor(0), 1);
  EXPECT_EQ(IdWidthFor(1), 1);
  EXPECT_EQ(IdWidthFor(10), 1);   // ids 0..9
  EXPECT_EQ(IdWidthFor(11), 2);   // ids 0..10
  EXPECT_EQ(IdWidthFor(27000), 5);
  EXPECT_EQ(IdWidthFor(1500000), 7);
}

TEST(CountingSinkTest, CountsLinksGroupsBytes) {
  CountingSink sink(4);
  sink.Link(1, 2);
  sink.Link(3, 4);
  const std::vector<PointId> group = {1, 2, 3};
  sink.Group(group);
  EXPECT_EQ(sink.num_links(), 2u);
  EXPECT_EQ(sink.num_groups(), 1u);
  EXPECT_EQ(sink.group_member_total(), 3u);
  // Each id costs width+1 bytes ("0001 " or "0001\n"): 2 links x 2 ids x 5
  // + 1 group x 3 ids x 5 = 35.
  EXPECT_EQ(sink.bytes(), 35u);
  EXPECT_TRUE(sink.Finish().ok());
}

TEST(FileSinkTest, WritesPaperFormat) {
  const std::string path = testing::TempDir() + "/csj_sink_test.txt";
  FileSink sink(4, path);
  ASSERT_TRUE(sink.open_status().ok());
  sink.Link(1, 2);
  const std::vector<PointId> group = {1, 2, 3};
  sink.Group(group);
  sink.Link(12345, 6);  // wider than the pad width: printed in full
  ASSERT_TRUE(sink.Finish().ok());

  EXPECT_EQ(ReadWholeFile(path), "0001 0002\n0001 0002 0003\n12345 0006\n");
}

TEST(FileSinkTest, FileBytesMatchAccountingForPaddedIds) {
  const std::string path = testing::TempDir() + "/csj_sink_bytes.txt";
  FileSink sink(4, path);
  sink.Link(7, 8);
  const std::vector<PointId> group = {10, 20, 30, 40};
  sink.Group(group);
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(sink.file_bytes(), sink.bytes());
  EXPECT_EQ(ReadWholeFile(path).size(), sink.bytes());
}

TEST(FileSinkTest, OpenFailureSurfacesInFinish) {
  FileSink sink(4, "/nonexistent-dir-xyz/out.txt");
  EXPECT_FALSE(sink.open_status().ok());
  sink.Link(1, 2);  // must not crash
  EXPECT_FALSE(sink.Finish().ok());
}

TEST(FileSinkTest, OpenFailureIsStickyAndShortCircuitsAppends) {
  // Regression: a failed Open used to let DoLink/DoGroup keep "appending"
  // into a closed file (counting bytes that were never writable) and only
  // report the problem at Finish. The error must be sticky and immediate.
  FileSink sink(4, "/nonexistent-dir-xyz/sub/out.txt");
  ASSERT_FALSE(sink.open_status().ok());
  EXPECT_FALSE(sink.error().ok());
  EXPECT_EQ(sink.error(), sink.open_status());

  sink.Link(1, 2);
  const std::vector<PointId> group = {1, 2, 3};
  sink.Group(group);

  // Nothing was accepted: the counters describe real output only.
  EXPECT_EQ(sink.num_links(), 0u);
  EXPECT_EQ(sink.num_groups(), 0u);
  EXPECT_EQ(sink.bytes(), 0u);
  EXPECT_EQ(sink.file_bytes(), 0u);

  const Status finish = sink.Finish();
  EXPECT_FALSE(finish.ok());
  EXPECT_EQ(finish, sink.open_status());  // first error wins
}

TEST(FileSinkTest, AtomicCommitHidesFileUntilFinish) {
  const std::string path = testing::TempDir() + "/csj_sink_atomic.txt";
  std::remove(path.c_str());
  FileSink sink(4, path);
  sink.Link(1, 2);
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "destination visible before Finish";
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(ReadWholeFile(path), "0001 0002\n");
  std::remove(path.c_str());
}

TEST(FileSinkTest, NonAtomicModeStreamsDirectly) {
  const std::string path = testing::TempDir() + "/csj_sink_plain.txt";
  FileSink::Options options;
  options.atomic = false;
  FileSink sink(4, path, options);
  sink.Link(1, 2);
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(ReadWholeFile(path), "0001 0002\n");
  std::remove(path.c_str());
}

TEST(FileSinkTest, AbandonedSinkLeavesNoFile) {
  const std::string path = testing::TempDir() + "/csj_sink_abandoned.txt";
  std::remove(path.c_str());
  {
    FileSink sink(4, path);
    sink.Link(1, 2);
    // Destroyed without Finish(): the interrupted-join case.
  }
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "abandoned sink left output at " << path;
}

TEST(MemorySinkTest, RetainsOutput) {
  MemorySink sink(3);
  sink.Link(5, 6);
  const std::vector<PointId> group = {7, 8, 9};
  sink.Group(group);
  ASSERT_EQ(sink.links().size(), 1u);
  EXPECT_EQ(sink.links()[0], (std::pair<PointId, PointId>{5, 6}));
  ASSERT_EQ(sink.groups().size(), 1u);
  EXPECT_EQ(sink.groups()[0], (std::vector<PointId>{7, 8, 9}));
}

TEST(SinkTest, ByteAccountingFormula) {
  // bytes = (#ids emitted) * (width + 1) for any mix of links and groups.
  CountingSink sink(7);
  sink.Link(0, 1);
  std::vector<PointId> group(10);
  for (size_t i = 0; i < group.size(); ++i) group[i] = static_cast<PointId>(i);
  sink.Group(group);
  sink.Group(group);
  const uint64_t ids = 2 + 10 + 10;
  EXPECT_EQ(sink.bytes(), ids * 8);
}

uint64_t FileSize(const std::string& path) {
  return ReadWholeFile(path).size();
}

/// Drives the same emission sequence into any sink.
void EmitSample(JoinSink* sink) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.5)) {
      sink->Link(static_cast<PointId>(rng.UniformInt(uint64_t{90000})),
                 static_cast<PointId>(rng.UniformInt(uint64_t{90000})));
    } else {
      std::vector<PointId> group(2 + rng.UniformInt(uint64_t{12}));
      for (auto& id : group) {
        id = static_cast<PointId>(rng.UniformInt(uint64_t{90000}));
      }
      sink->Group(group);
    }
  }
}

TEST(ByteAccountingTest, CountedBytesEqualFileSizeForBothFormats) {
  // Regression for the format-aware size model: for text AND binary, the
  // sink's pre-Finish bytes() must equal the committed file's stat() size.
  for (const OutputFormat format :
       {OutputFormat::kText, OutputFormat::kBinary}) {
    const std::string path = testing::TempDir() + "/csj_acct." +
                             OutputFormatName(format);
    auto sink = MakeSinkOrDie(OutputSpec::File(path, 90000, format));
    EmitSample(sink.get());
    const uint64_t predicted = sink->bytes();
    ASSERT_TRUE(sink->Finish().ok());
    EXPECT_EQ(predicted, FileSize(path)) << OutputFormatName(format);
    // Finish() must not change the accounting.
    EXPECT_EQ(sink->bytes(), predicted);
    std::remove(path.c_str());
  }
}

TEST(ByteAccountingTest, CountingSinkPredictsBinaryFileExactly) {
  const std::string path = testing::TempDir() + "/csj_acct_predict.bin";
  auto file_sink =
      MakeSinkOrDie(OutputSpec::File(path, 90000, OutputFormat::kBinary));
  auto counting = MakeSinkOrDie(
      OutputSpec::Counting(90000, OutputFormat::kBinary));
  EmitSample(file_sink.get());
  EmitSample(counting.get());
  EXPECT_EQ(counting->bytes(), file_sink->bytes());
  ASSERT_TRUE(file_sink->Finish().ok());
  EXPECT_EQ(counting->bytes(), FileSize(path));
  ASSERT_TRUE(counting->Finish().ok());
  std::remove(path.c_str());
}

TEST(ByteAccountingTest, EmptyBinaryFileSizeIsPredicted) {
  const std::string path = testing::TempDir() + "/csj_acct_empty.bin";
  auto sink =
      MakeSinkOrDie(OutputSpec::File(path, 10, OutputFormat::kBinary));
  const uint64_t predicted = sink->bytes();
  EXPECT_GT(predicted, 0u);  // header + EOF marker + footer
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_EQ(predicted, FileSize(path));
  std::remove(path.c_str());
}

TEST(MakeSinkTest, BuildsEveryFormat) {
  const std::string dir = testing::TempDir();
  {
    auto sink = MakeSink(OutputSpec::Counting(100));
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ((*sink)->id_width(), 2);
    EXPECT_EQ((*sink)->accounting(), OutputFormat::kText);
  }
  {
    auto sink = MakeSink(OutputSpec::Counting(100, OutputFormat::kBinary));
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ((*sink)->accounting(), OutputFormat::kBinary);
  }
  for (const OutputFormat format :
       {OutputFormat::kText, OutputFormat::kBinary}) {
    const std::string path = dir + "/csj_factory." + OutputFormatName(format);
    auto sink = MakeSink(OutputSpec::File(path, 1000, format));
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    EXPECT_EQ((*sink)->id_width(), 3);
    (*sink)->Link(1, 2);
    ASSERT_TRUE((*sink)->Finish().ok());
    std::remove(path.c_str());
  }
}

TEST(MakeSinkTest, RejectsInvalidSpecs) {
  {
    OutputSpec spec;  // text with no path
    spec.format = OutputFormat::kText;
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  {
    OutputSpec spec;
    spec.format = OutputFormat::kBinary;
    EXPECT_FALSE(MakeSink(spec).ok());  // binary with no path
  }
  {
    OutputSpec spec = OutputSpec::File(
        testing::TempDir() + "/csj_factory_cap.bin", 10,
        OutputFormat::kBinary);
    spec.cap_bytes = 1000;  // caps are text-only
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  {
    OutputSpec spec = OutputSpec::Counting(10);
    spec.count_model = OutputFormat::kNone;  // not a byte model
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  {
    OutputSpec spec = OutputSpec::Counting(10);
    spec.id_width = 0;
    EXPECT_FALSE(MakeSink(spec).ok());
  }
  // Unopenable paths fail at MakeSink, not at the first write.
  EXPECT_FALSE(
      MakeSink(OutputSpec::File("/nonexistent-dir-xyz/r.txt", 10)).ok());
  EXPECT_FALSE(MakeSink(OutputSpec::File("/nonexistent-dir-xyz/r.bin", 10,
                                         OutputFormat::kBinary))
                   .ok());
}

TEST(FileSinkTest, CapStopsWritingButKeepsCounting) {
  const std::string path = testing::TempDir() + "/csj_sink_capped.txt";
  OutputSpec spec = OutputSpec::File(path, 10000);
  spec.cap_bytes = 30;  // room for three 10-byte link lines
  auto sink = MakeSinkOrDie(spec);
  for (PointId i = 0; i < 10; ++i) sink->Link(i, i + 1);
  EXPECT_TRUE(sink->truncated());
  EXPECT_EQ(sink->num_links(), 10u);   // all counted
  EXPECT_EQ(sink->bytes(), 100u);      // full (uncapped) size
  EXPECT_EQ(sink->materialized_bytes(), 30u);
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_EQ(FileSize(path), 30u);
  std::remove(path.c_str());
}

// --- The text stage: records staged into kTextStageBytes blocks -----------

TEST(FileSinkTest, RecordsStraddlingStageBoundaryReadBackIdentical) {
  // Enough links and groups to fill the stage several times over, including
  // a group larger than a whole stage and ids wider than the pad width, so
  // records land on, just before and across every block boundary.
  const std::string path = testing::TempDir() + "/csj_sink_stage.txt";
  const int width = 5;
  FileSink sink(width, path);
  ASSERT_TRUE(sink.open_status().ok());
  std::string expected;
  Rng rng(29);
  for (int i = 0; i < 40000; ++i) {
    const auto id = [&] {
      // Mostly in-width ids, a few wider than the pad width.
      return static_cast<PointId>(rng.Bernoulli(0.01)
                                      ? 100000 + rng.UniformInt(uint64_t{900})
                                      : rng.UniformInt(uint64_t{99999}));
    };
    std::vector<PointId> record(i == 20000 ? 13000
                                           : 2 + rng.UniformInt(uint64_t{5}));
    for (auto& member : record) member = id();
    if (record.size() == 2) {
      sink.Link(record[0], record[1]);
    } else {
      sink.Group(record);
    }
    for (size_t k = 0; k < record.size(); ++k) {
      expected += ZeroPad(record[k], width);
      expected += k + 1 == record.size() ? '\n' : ' ';
    }
  }
  ASSERT_GT(expected.size(), 4 * kTextStageBytes);
  EXPECT_EQ(sink.file_bytes(), expected.size());  // staged bytes included
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_TRUE(ReadWholeFile(path) == expected)
      << "staged text output differs from the per-record encoding";
  std::remove(path.c_str());
}

TEST(FileSinkTest, CheckpointFlushesPartlyFilledStage) {
  const std::string path = testing::TempDir() + "/csj_sink_stage_ckpt.txt";
  FileSink::Options options;
  options.checkpointable = true;
  FileSink sink(4, path, options);
  ASSERT_TRUE(sink.open_status().ok());
  // One full block handed over plus a partly filled stage: 10 B per link.
  const uint64_t links = kTextStageBytes / 10 + 100;
  for (PointId i = 0; i < links; ++i) sink.Link(i % 10000, (i + 1) % 10000);
  checkpoint::SinkState state;
  ASSERT_TRUE(sink.Checkpoint(&state).ok());
  EXPECT_EQ(state.committed_bytes, links * 10);
  EXPECT_EQ(state.committed_bytes, sink.bytes());
  EXPECT_EQ(FileSize(path), state.committed_bytes)
      << "Checkpoint() left staged bytes off the disk";
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(FileSize(path), links * 10);
  std::remove(path.c_str());
}

TEST(FileSinkTest, PipeWithClosedReaderEndsInStickyCancelled) {
  // A consumer that hangs up (`csj_tool join | head`, a client disconnect)
  // surfaces as EPIPE on the first staged block that reaches the pipe.
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  FileSink::Options options;
  options.fd = fds[1];
  FileSink sink(4, "<pipe>", options);
  ::close(fds[1]);  // the sink writes through its own duplicate
  ASSERT_TRUE(sink.open_status().ok());
  for (PointId i = 0; i < 2 * kTextStageBytes / 10; ++i) sink.Link(i, i + 1);
  ASSERT_FALSE(sink.error().ok()) << "a full stage never reached the pipe";
  EXPECT_EQ(sink.error().code(), StatusCode::kCancelled)
      << sink.error().ToString();
  // Sticky: nothing further is accepted, and Finish reports the same error.
  const uint64_t accepted = sink.num_links();
  EXPECT_LT(accepted, 2 * kTextStageBytes / 10);
  sink.Link(1, 2);
  EXPECT_EQ(sink.num_links(), accepted);
  EXPECT_EQ(sink.Finish().code(), StatusCode::kCancelled);
}

TEST(BinaryFileSinkTest, AbandonedSinkLeavesNoFile) {
  const std::string path = testing::TempDir() + "/csj_bin_abandoned.bin";
  std::remove(path.c_str());
  {
    auto sink =
        MakeSinkOrDie(OutputSpec::File(path, 100, OutputFormat::kBinary));
    sink->Link(1, 2);
    // Destroyed without Finish(): the interrupted-join case.
  }
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "abandoned binary sink left output at " << path;
}

TEST(BinaryFileSinkTest, AtomicCommitHidesFileUntilFinish) {
  const std::string path = testing::TempDir() + "/csj_bin_atomic.bin";
  std::remove(path.c_str());
  auto sink =
      MakeSinkOrDie(OutputSpec::File(path, 100, OutputFormat::kBinary));
  sink->Link(1, 2);
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr)
      << "destination visible before Finish";
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_GT(FileSize(path), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csj
