#include "core/sink.h"

namespace csj {

const char* OutputFormatName(OutputFormat format) {
  switch (format) {
    case OutputFormat::kNone:
      return "none";
    case OutputFormat::kText:
      return "text";
    case OutputFormat::kBinary:
      return "binary";
  }
  return "unknown";
}

bool ParseOutputFormat(const std::string& name, OutputFormat* format) {
  if (name == "none") {
    *format = OutputFormat::kNone;
  } else if (name == "text") {
    *format = OutputFormat::kText;
  } else if (name == "binary") {
    *format = OutputFormat::kBinary;
  } else {
    return false;
  }
  return true;
}

FileSink::FileSink(int id_width, std::string path, const Options& options)
    : JoinSink(id_width), path_(std::move(path)), options_(options) {
  OutputFile::Options file_options;
  // Checkpointable output streams straight to the destination and survives
  // errors/kills: the bytes up to the last checkpoint are the resume state.
  file_options.atomic =
      options.atomic && !options.checkpointable && options.fd < 0;
  file_options.sync_on_close = options.sync_on_close;
  file_options.preserve_on_error = options.checkpointable;
  open_status_ = options.fd >= 0 ? file_.OpenFd(options.fd, file_options)
                                 : file_.Open(path_, file_options);
  SetError(open_status_);
  stage_.reserve(kTextStageBytes);
}

FileSink::FileSink(int id_width, std::string path, const Options& options,
                   const checkpoint::SinkState& resume)
    : JoinSink(id_width), path_(std::move(path)), options_(options) {
  CSJ_CHECK(options.checkpointable)
      << "resuming requires a checkpointable sink: " << path_;
  OutputFile::Options file_options;
  file_options.sync_on_close = options.sync_on_close;
  open_status_ =
      file_.OpenForResume(path_, resume.committed_bytes, file_options);
  SetError(open_status_);
  if (open_status_.ok()) RestoreAccounting(resume);
  stage_.reserve(kTextStageBytes);
}

bool FileSink::Reserve(size_t ids) {
  const uint64_t record = ids * static_cast<uint64_t>(id_width() + 1);
  if (options_.cap_bytes != 0 &&
      materialized_bytes() + record > options_.cap_bytes) {
    truncated_ = true;
    return false;
  }
  if (stage_.size() + record > kTextStageBytes) FlushStage();
  return error().ok();
}

void FileSink::FlushStage() {
  if (stage_.empty()) return;
  SetError(file_.Append(stage_));
  stage_.clear();
}

void FileSink::DoLink(PointId a, PointId b) {
  if (!Reserve(2)) return;
  AppendPaddedId(a, id_width(), ' ', &stage_);
  AppendPaddedId(b, id_width(), '\n', &stage_);
}

void FileSink::DoGroup(std::span<const PointId> members) {
  if (!Reserve(members.size())) return;
  for (size_t i = 0; i < members.size(); ++i) {
    AppendPaddedId(members[i], id_width(),
                   i + 1 == members.size() ? '\n' : ' ', &stage_);
  }
}

Status FileSink::Finish() {
  if (error().ok()) FlushStage();
  if (!error().ok()) {
    // The OutputFile already cleaned up its partial file when it failed (or
    // will in its destructor if the error came from elsewhere).
    return error();
  }
  const Status close_status = file_.Close();
  SetError(close_status);
  return close_status;
}

Status FileSink::Checkpoint(checkpoint::SinkState* state) {
  if (!error().ok()) return error();
  CSJ_CHECK(options_.checkpointable)
      << "Checkpoint on a non-checkpointable file sink: " << path_;
  // Text records are staged and appended whole, so after the stage is
  // flushed and synced every counted byte is durable and bytes_written() is
  // a record-boundary resume point.
  FlushStage();
  if (!error().ok()) return error();
  SetError(file_.Sync());
  if (!error().ok()) return error();
  ExportAccounting(state);
  state->format = static_cast<uint8_t>(OutputFormat::kText);
  state->committed_bytes = file_.bytes_written();
  return Status::OK();
}

BinaryFileSink::BinaryFileSink(int id_width, std::string path,
                               const Options& options)
    : JoinSink(id_width, OutputFormat::kBinary, options.block_payload_bytes),
      path_(std::move(path)),
      options_(options) {
  OutputFile::Options file_options;
  file_options.atomic =
      options.atomic && !options.checkpointable && options.fd < 0;
  file_options.sync_on_close = options.sync_on_close;
  file_options.preserve_on_error = options.checkpointable;
  open_status_ = options.fd >= 0 ? file_.OpenFd(options.fd, file_options)
                                 : file_.Open(path_, file_options);
  SetError(open_status_);
  if (!open_status_.ok()) return;
  if (!ChargeBuffers()) return;
  writer_ = std::make_unique<AsyncBlockWriter>(&file_);
  std::string header;
  binfmt::AppendFileHeader(&header, this->id_width());
  writer_->Submit(std::move(header));
  StartBlock();
}

bool BinaryFileSink::ChargeBuffers() {
  if (options_.budget == nullptr) return true;
  // Steady-state buffer footprint: the block being filled plus the async
  // writer's bounded queue and its recycled free buffer.
  const uint64_t per_block = static_cast<uint64_t>(
      binfmt::kBlockHeaderBytes + options_.block_payload_bytes);
  const uint64_t bytes =
      per_block * (AsyncBlockWriter::Options().max_queued_blocks + 1);
  if (!buffer_charge_.Acquire(options_.budget, bytes)) {
    open_status_ = Status::ResourceExhausted(StrFormat(
        "memory budget exhausted reserving %llu bytes of output block "
        "buffers for %s",
        static_cast<unsigned long long>(bytes), path_.c_str()));
    SetError(open_status_);
    return false;
  }
  return true;
}

BinaryFileSink::BinaryFileSink(int id_width, std::string path,
                               const Options& options,
                               const checkpoint::SinkState& resume)
    : JoinSink(id_width, OutputFormat::kBinary, options.block_payload_bytes),
      path_(std::move(path)),
      options_(options) {
  CSJ_CHECK(options.checkpointable)
      << "resuming requires a checkpointable sink: " << path_;
  CSJ_CHECK(resume.model_fill == resume.partial_payload.size())
      << "manifest sink state inconsistent: model fill " << resume.model_fill
      << " vs " << resume.partial_payload.size() << " partial payload bytes";
  OutputFile::Options file_options;
  file_options.sync_on_close = options.sync_on_close;
  open_status_ =
      file_.OpenForResume(path_, resume.committed_bytes, file_options);
  SetError(open_status_);
  if (!open_status_.ok()) return;
  if (!ChargeBuffers()) return;
  RestoreAccounting(resume);
  writer_ = std::make_unique<AsyncBlockWriter>(&file_);
  // The committed prefix already holds the file header and every sealed
  // block; only the still-open block needs reconstructing, and from here
  // the sealing rule produces the exact block layout an uninterrupted run
  // would have.
  StartBlock();
  block_ += resume.partial_payload;
  record_count_ = static_cast<uint32_t>(resume.partial_records);
  id_total_ = resume.id_total;
}

BinaryFileSink::~BinaryFileSink() {
  // Abandoned without Finish(): stop the writer thread before the OutputFile
  // member (destroyed after writer_) discards the partial file.
  if (writer_ != nullptr) (void)writer_->Finish();
}

void BinaryFileSink::StartBlock() {
  block_ = writer_->GetBuffer();
  block_.append(binfmt::kBlockHeaderBytes, '\0');  // header slot, patched on seal
  record_count_ = 0;
}

void BinaryFileSink::SealBlock() {
  binfmt::BlockHeader header;
  header.payload_bytes = static_cast<uint32_t>(PayloadFill());
  header.record_count = record_count_;
  header.crc32 = binfmt::Crc32(block_.data() + binfmt::kBlockHeaderBytes,
                               PayloadFill());
  binfmt::PatchBlockHeader(&block_, 0, header);
  CSJ_METRIC_COUNT("sink.binary_blocks", 1);
  writer_->Submit(std::move(block_));
  StartBlock();
}

void BinaryFileSink::DoLink(PointId a, PointId b) {
  PollWriter();
  if (!error().ok()) return;
  const size_t record = binfmt::EncodedLinkBytes(a, b);
  if (binfmt::WouldSealBlock(PayloadFill(), record,
                             options_.block_payload_bytes)) {
    SealBlock();
  }
  binfmt::AppendLinkRecord(&block_, a, b);
  ++record_count_;
  id_total_ += 2;
}

void BinaryFileSink::DoGroup(std::span<const PointId> members) {
  PollWriter();
  if (!error().ok()) return;
  const size_t record = binfmt::EncodedGroupBytes(members);
  if (binfmt::WouldSealBlock(PayloadFill(), record,
                             options_.block_payload_bytes)) {
    SealBlock();
  }
  binfmt::AppendGroupRecord(&block_, members);
  ++record_count_;
  id_total_ += members.size();
}

Status BinaryFileSink::Finish() {
  CSJ_CHECK(!finished_) << "BinaryFileSink::Finish called twice: " << path_;
  finished_ = true;
  if (writer_ != nullptr) {
    PollWriter();
    if (error().ok()) {
      if (record_count_ > 0) SealBlock();
      std::string trailer = std::move(block_);
      trailer.clear();
      binfmt::AppendBlockHeader(&trailer, binfmt::BlockHeader{});  // EOF marker
      binfmt::Footer footer;
      footer.num_links = num_links();
      footer.num_groups = num_groups();
      footer.id_total = id_total_;
      binfmt::AppendFooter(&trailer, footer);
      writer_->Submit(std::move(trailer));
    }
    SetError(writer_->Finish());
  }
  if (!error().ok()) {
    // The OutputFile cleaned up (or its destructor will); no partial file.
    return error();
  }
  const Status close_status = file_.Close();
  SetError(close_status);
  return close_status;
}

Status BinaryFileSink::Checkpoint(checkpoint::SinkState* state) {
  CSJ_CHECK(options_.checkpointable)
      << "Checkpoint on a non-checkpointable binary sink: " << path_;
  PollWriter();
  if (!error().ok()) return error();
  // Wait for every sealed block to reach the OutputFile, then make the
  // landed prefix durable: bytes_written() is now exactly the file header
  // plus all sealed blocks — a clean resume boundary.
  SetError(writer_->Drain());
  if (!error().ok()) return error();
  SetError(file_.Sync());
  if (!error().ok()) return error();
  ExportAccounting(state);
  state->format = static_cast<uint8_t>(OutputFormat::kBinary);
  state->committed_bytes = file_.bytes_written();
  state->id_total = id_total_;
  state->partial_records = record_count_;
  state->partial_payload.assign(block_.data() + binfmt::kBlockHeaderBytes,
                                PayloadFill());
  CSJ_DCHECK(state->model_fill == state->partial_payload.size());
  return Status::OK();
}

Result<std::unique_ptr<JoinSink>> MakeSink(const OutputSpec& spec) {
  if (spec.id_width < 1) {
    return Status::InvalidArgument("OutputSpec.id_width must be >= 1");
  }
  switch (spec.format) {
    case OutputFormat::kNone: {
      if (spec.count_model == OutputFormat::kNone) {
        return Status::InvalidArgument(
            "OutputSpec.count_model must be text or binary");
      }
      return std::unique_ptr<JoinSink>(
          std::make_unique<CountingSink>(spec.id_width, spec.count_model));
    }
    case OutputFormat::kText: {
      if (spec.path.empty() && spec.fd < 0) {
        return Status::InvalidArgument(
            "text output needs OutputSpec.path or OutputSpec.fd");
      }
      if (spec.checkpointable && spec.cap_bytes != 0) {
        return Status::InvalidArgument(
            "checkpointable output cannot be size-capped");
      }
      if (spec.fd >= 0 && (spec.checkpointable || spec.cap_bytes != 0)) {
        return Status::InvalidArgument(
            "a streamed (fd) sink cannot be checkpointed or size-capped");
      }
      FileSink::Options options;
      options.atomic = spec.atomic;
      options.sync_on_close = spec.sync_on_close;
      options.cap_bytes = spec.cap_bytes;
      options.checkpointable = spec.checkpointable;
      options.fd = spec.fd;
      auto sink =
          std::make_unique<FileSink>(spec.id_width, spec.path, options);
      if (!sink->open_status().ok()) return sink->open_status();
      return std::unique_ptr<JoinSink>(std::move(sink));
    }
    case OutputFormat::kBinary: {
      if (spec.path.empty() && spec.fd < 0) {
        return Status::InvalidArgument(
            "binary output needs OutputSpec.path or OutputSpec.fd");
      }
      if (spec.cap_bytes != 0) {
        return Status::InvalidArgument(
            "cap_bytes is only supported for text output");
      }
      if (spec.fd >= 0 && spec.checkpointable) {
        return Status::InvalidArgument(
            "a streamed (fd) sink cannot be checkpointed");
      }
      BinaryFileSink::Options options;
      options.atomic = spec.atomic;
      options.sync_on_close = spec.sync_on_close;
      options.checkpointable = spec.checkpointable;
      options.budget = spec.budget;
      options.fd = spec.fd;
      auto sink =
          std::make_unique<BinaryFileSink>(spec.id_width, spec.path, options);
      if (!sink->open_status().ok()) return sink->open_status();
      return std::unique_ptr<JoinSink>(std::move(sink));
    }
  }
  return Status::InvalidArgument("unknown output format");
}

std::unique_ptr<JoinSink> MakeSinkOrDie(const OutputSpec& spec) {
  auto sink = MakeSink(spec);
  CSJ_CHECK(sink.ok()) << sink.status().ToString();
  return std::move(sink).value();
}

Result<std::unique_ptr<JoinSink>> ResumeSink(
    const OutputSpec& spec, const checkpoint::SinkState& state) {
  if (spec.id_width < 1) {
    return Status::InvalidArgument("OutputSpec.id_width must be >= 1");
  }
  if (state.id_width != static_cast<uint32_t>(spec.id_width)) {
    return Status::FailedPrecondition(
        StrFormat("cannot resume: checkpoint used id width %u but the run is "
                  "configured for %d",
                  state.id_width, spec.id_width));
  }
  const auto state_format = static_cast<OutputFormat>(state.format);
  if (state_format != spec.format) {
    return Status::FailedPrecondition(
        StrFormat("cannot resume: checkpoint was written by a %s sink but "
                  "the run is configured for %s output",
                  OutputFormatName(state_format),
                  OutputFormatName(spec.format)));
  }
  switch (spec.format) {
    case OutputFormat::kNone: {
      auto sink =
          std::make_unique<CountingSink>(spec.id_width, spec.count_model);
      sink->RestoreAccounting(state);
      return std::unique_ptr<JoinSink>(std::move(sink));
    }
    case OutputFormat::kText: {
      if (!spec.checkpointable) {
        return Status::InvalidArgument(
            "resuming requires a checkpointable OutputSpec");
      }
      FileSink::Options options;
      options.sync_on_close = spec.sync_on_close;
      options.checkpointable = true;
      auto sink = std::make_unique<FileSink>(spec.id_width, spec.path,
                                             options, state);
      if (!sink->open_status().ok()) return sink->open_status();
      return std::unique_ptr<JoinSink>(std::move(sink));
    }
    case OutputFormat::kBinary: {
      if (!spec.checkpointable) {
        return Status::InvalidArgument(
            "resuming requires a checkpointable OutputSpec");
      }
      BinaryFileSink::Options options;
      options.sync_on_close = spec.sync_on_close;
      options.checkpointable = true;
      options.budget = spec.budget;
      auto sink = std::make_unique<BinaryFileSink>(spec.id_width, spec.path,
                                                   options, state);
      if (!sink->open_status().ok()) return sink->open_status();
      return std::unique_ptr<JoinSink>(std::move(sink));
    }
  }
  return Status::InvalidArgument("unknown output format");
}

}  // namespace csj
