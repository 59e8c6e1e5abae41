#include "core/result_cursor.h"

#include <cstdio>

#include "storage/binary_format.h"
#include "util/format.h"

namespace csj {

namespace {

/// Incremental parser for the paper's text format: one whitespace-separated
/// id list per line; two ids form a link, three or more form a group.
class TextResultCursor final : public ResultCursor {
 public:
  explicit TextResultCursor(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) status_ = Status::NotFound("cannot open: " + path);
  }

  ~TextResultCursor() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool Next() override {
    if (!status_.ok() || done_) return false;
    ids_.clear();
    bool in_number = false;
    uint64_t current = 0;
    for (;;) {
      if (pos_ == len_) {
        len_ = std::fread(buffer_, 1, sizeof(buffer_), file_);
        pos_ = 0;
        if (len_ == 0) {  // EOF; the file may not end with a newline
          done_ = true;
          if (in_number) ids_.push_back(static_cast<PointId>(current));
          return ids_.empty() ? false : EmitLine();
        }
      }
      const char c = buffer_[pos_++];
      if (c >= '0' && c <= '9') {
        current = current * 10 + static_cast<uint64_t>(c - '0');
        in_number = true;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        if (in_number) {
          ids_.push_back(static_cast<PointId>(current));
          in_number = false;
          current = 0;
        }
      } else if (c == '\n') {
        if (in_number) {
          ids_.push_back(static_cast<PointId>(current));
          in_number = false;
          current = 0;
        }
        ++line_no_;
        if (!ids_.empty()) return EmitLine();
        // blank line: keep scanning
      } else {
        status_ = Status::InvalidArgument(StrFormat(
            "%s:%d: unexpected character '%c'", path_.c_str(), line_no_, c));
        return false;
      }
    }
  }

  OutputFormat format() const override { return OutputFormat::kText; }

 private:
  /// Lines with fewer than two ids are rejected (a single id implies
  /// nothing and is never emitted by the writers).
  bool EmitLine() {
    if (ids_.size() == 1) {
      // line_no_ was already advanced past the newline of a mid-file line.
      status_ = Status::InvalidArgument(StrFormat(
          "%s:%d: singleton line", path_.c_str(),
          done_ ? line_no_ : line_no_ - 1));
      return false;
    }
    record_.is_group = ids_.size() > 2;
    record_.ids = std::span<const PointId>(ids_);
    if (record_.is_group) {
      ++groups_read_;
    } else {
      ++links_read_;
    }
    return true;
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  char buffer_[1 << 16];
  size_t pos_ = 0;
  size_t len_ = 0;
  int line_no_ = 1;
  bool done_ = false;
};

/// Block-at-a-time reader for the CSJ2 binary format. Validates each
/// block's checksum and the footer's totals as it goes.
class BinaryResultCursor final : public ResultCursor {
 public:
  explicit BinaryResultCursor(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) {
      status_ = Status::NotFound("cannot open: " + path);
      return;
    }
    char header[binfmt::kFileHeaderBytes];
    const size_t got = std::fread(header, 1, sizeof(header), file_);
    status_ = binfmt::ParseFileHeader(header, got, &id_width_);
    if (!status_.ok()) {
      status_ = Fail(status_.message());
    }
  }

  ~BinaryResultCursor() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool Next() override {
    if (!status_.ok() || done_) return false;
    if (block_records_left_ == 0 && !ReadNextBlock()) return false;
    return DecodeRecord();
  }

  int declared_id_width() const override { return id_width_; }
  OutputFormat format() const override { return OutputFormat::kBinary; }

 private:
  Status Fail(const std::string& detail) {
    return Status::InvalidArgument(path_ + ": " + detail);
  }

  /// Reads and validates the next block header + payload. Returns false at
  /// the EOF marker (after footer validation) or on error.
  bool ReadNextBlock() {
    char raw[binfmt::kBlockHeaderBytes];
    size_t got = std::fread(raw, 1, sizeof(raw), file_);
    if (got != sizeof(raw)) {
      status_ = Fail("truncated block header (incomplete result file)");
      return false;
    }
    const binfmt::BlockHeader header = binfmt::ParseBlockHeader(raw);
    if (header.IsEofMarker()) {
      ReadFooter();
      return false;
    }
    ++block_index_;
    if (header.payload_bytes == 0 || header.record_count == 0) {
      status_ = Fail(StrFormat("block %zu has an empty payload or record "
                               "count", block_index_));
      return false;
    }
    payload_.resize(header.payload_bytes);
    got = std::fread(payload_.data(), 1, payload_.size(), file_);
    if (got != payload_.size()) {
      status_ = Fail(StrFormat("truncated block %zu payload (%zu of %u "
                               "bytes)", block_index_, got,
                               header.payload_bytes));
      return false;
    }
    const uint32_t crc = binfmt::Crc32(payload_.data(), payload_.size());
    if (crc != header.crc32) {
      status_ = Fail(StrFormat(
          "block %zu checksum mismatch (stored %08x, computed %08x)",
          block_index_, header.crc32, crc));
      return false;
    }
    payload_pos_ = 0;
    block_records_left_ = header.record_count;
    return true;
  }

  void ReadFooter() {
    char raw[binfmt::kFooterBytes];
    const size_t got = std::fread(raw, 1, sizeof(raw), file_);
    binfmt::Footer footer;
    Status status = binfmt::ParseFooter(raw, got, &footer);
    if (!status.ok()) {
      status_ = Fail(status.message());
      return;
    }
    if (footer.num_links != links_read_ ||
        footer.num_groups != groups_read_ || footer.id_total != ids_seen_) {
      status_ = Fail(StrFormat(
          "footer totals disagree with decoded records (footer %llu/%llu/%llu,"
          " decoded %llu/%llu/%llu)",
          static_cast<unsigned long long>(footer.num_links),
          static_cast<unsigned long long>(footer.num_groups),
          static_cast<unsigned long long>(footer.id_total),
          static_cast<unsigned long long>(links_read_),
          static_cast<unsigned long long>(groups_read_),
          static_cast<unsigned long long>(ids_seen_)));
      return;
    }
    char extra;
    if (std::fread(&extra, 1, 1, file_) != 0) {
      status_ = Fail("trailing bytes after footer");
      return;
    }
    done_ = true;
  }

  bool ParseId(uint64_t raw, PointId* id) {
    if (raw > 0xFFFFFFFFull) return false;
    *id = static_cast<PointId>(raw);
    return true;
  }

  bool DecodeRecord() {
    const char* data = payload_.data();
    const size_t size = payload_.size();
    uint64_t tag;
    size_t n = binfmt::ParseVarint(data + payload_pos_, size - payload_pos_,
                                   &tag);
    if (n == 0 || tag == 1) {
      status_ = Fail(StrFormat("corrupt record tag in block %zu",
                               block_index_));
      return false;
    }
    const size_t k = tag == 0 ? 2 : static_cast<size_t>(tag);
    payload_pos_ += n;
    // Each remaining id takes at least one byte; reject absurd counts
    // before allocating.
    if (k > size - payload_pos_ + 1) {
      status_ = Fail(StrFormat("corrupt group size %zu in block %zu", k,
                               block_index_));
      return false;
    }
    ids_.clear();
    ids_.reserve(k);
    uint64_t raw;
    n = binfmt::ParseVarint(data + payload_pos_, size - payload_pos_, &raw);
    PointId id;
    if (n == 0 || !ParseId(raw, &id)) {
      status_ = Fail(StrFormat("corrupt id in block %zu", block_index_));
      return false;
    }
    payload_pos_ += n;
    ids_.push_back(id);
    for (size_t i = 1; i < k; ++i) {
      n = binfmt::ParseVarint(data + payload_pos_, size - payload_pos_, &raw);
      if (n == 0) {
        status_ = Fail(StrFormat("corrupt id delta in block %zu",
                                 block_index_));
        return false;
      }
      payload_pos_ += n;
      const int64_t next = static_cast<int64_t>(ids_.back()) +
                           binfmt::UnZigZag(raw);
      if (next < 0 || next > 0xFFFFFFFFll) {
        status_ = Fail(StrFormat("id delta out of range in block %zu",
                                 block_index_));
        return false;
      }
      ids_.push_back(static_cast<PointId>(next));
    }
    --block_records_left_;
    if (block_records_left_ == 0 && payload_pos_ != size) {
      status_ = Fail(StrFormat("trailing bytes in block %zu", block_index_));
      return false;
    }
    record_.is_group = tag != 0;
    record_.ids = std::span<const PointId>(ids_);
    if (record_.is_group) {
      ++groups_read_;
    } else {
      ++links_read_;
    }
    ids_seen_ += k;
    return true;
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  int id_width_ = 0;
  std::string payload_;
  size_t payload_pos_ = 0;
  uint32_t block_records_left_ = 0;
  size_t block_index_ = 0;
  uint64_t ids_seen_ = 0;
  bool done_ = false;
};

}  // namespace

Result<std::unique_ptr<ResultCursor>> OpenResultCursor(
    const std::string& path, OutputFormat format) {
  std::unique_ptr<ResultCursor> cursor;
  switch (format) {
    case OutputFormat::kText:
      cursor = std::make_unique<TextResultCursor>(path);
      break;
    case OutputFormat::kBinary:
      cursor = std::make_unique<BinaryResultCursor>(path);
      break;
    case OutputFormat::kNone:
      return Status::InvalidArgument(
          "cannot open a result cursor with format 'none'");
  }
  // Construction-time failures (missing file, bad header) surface here so
  // callers get a Status instead of an immediately-dead cursor.
  if (!cursor->status().ok()) return cursor->status();
  return cursor;
}

Result<std::unique_ptr<ResultCursor>> OpenResultCursor(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  char head[binfmt::kFileHeaderBytes] = {};
  const size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  return OpenResultCursor(path, binfmt::LooksLikeBinary(head, got)
                                    ? OutputFormat::kBinary
                                    : OutputFormat::kText);
}

Status ReplayResult(ResultCursor* cursor, JoinSink* sink) {
  while (cursor->Next()) {
    const ResultRecord& record = cursor->record();
    if (record.is_group) {
      sink->Group(record.ids);
    } else {
      sink->Link(record.ids[0], record.ids[1]);
    }
    if (!sink->error().ok()) return sink->error();
  }
  return cursor->status();
}

Result<JoinOutput> ReadJoinOutput(const std::string& path) {
  CSJ_ASSIGN_OR_RETURN(auto cursor, OpenResultCursor(path));
  JoinOutput output;
  while (cursor->Next()) {
    const ResultRecord& record = cursor->record();
    if (record.is_group) {
      output.groups.emplace_back(record.ids.begin(), record.ids.end());
    } else {
      output.links.emplace_back(record.ids[0], record.ids[1]);
    }
  }
  CSJ_RETURN_IF_ERROR(cursor->status());
  return output;
}

}  // namespace csj
