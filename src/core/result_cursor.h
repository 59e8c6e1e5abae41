#ifndef CSJ_CORE_RESULT_CURSOR_H_
#define CSJ_CORE_RESULT_CURSOR_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sink.h"
#include "geom/point.h"
#include "util/status.h"

/// \file
/// Format-agnostic streaming reader for materialized join results.
///
/// A ResultCursor yields the result's records — links and groups — one at a
/// time, whichever on-disk format they were written in. Consumers
/// (expansion, statistics, csj_tool cat/verify/report) are written against
/// the cursor and run unchanged on the paper's text format and the CSJ2
/// binary format. OpenResultCursor sniffs the format from the file's first
/// bytes.
///
/// The binary backend validates per-block checksums and the file footer as
/// it reads, so a truncated or corrupted result surfaces as a Status
/// instead of silently decoding garbage.

namespace csj {

/// One record of a join result. `ids` points into cursor-owned storage and
/// is valid until the next Next() call.
struct ResultRecord {
  /// False for an individual link (exactly 2 ids). Note the text format
  /// cannot distinguish a 2-member group from a link, so text cursors
  /// always report 2-id lines as links; the binary format preserves the
  /// distinction.
  bool is_group = false;
  std::span<const PointId> ids;
};

/// Streaming reader over a materialized join result.
class ResultCursor {
 public:
  virtual ~ResultCursor() = default;

  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Advances to the next record. Returns true if record() is valid; false
  /// at end-of-stream *or* on error — distinguish by status(), which is OK
  /// after a clean end.
  virtual bool Next() = 0;

  /// The current record; valid after Next() returned true, until the next
  /// Next() call.
  const ResultRecord& record() const { return record_; }

  /// Sticky error state. OK until a parse/IO error occurs.
  const Status& status() const { return status_; }

  /// The zero-pad id width the result declares, if its format stores one
  /// (CSJ2 does); 0 when unknown (text).
  virtual int declared_id_width() const { return 0; }

  /// The on-disk format this cursor decodes.
  virtual OutputFormat format() const = 0;

  /// Records emitted so far (links and groups counted separately; these are
  /// record counts, not implied-pair counts).
  uint64_t links_read() const { return links_read_; }
  uint64_t groups_read() const { return groups_read_; }

 protected:
  ResultCursor() = default;

  std::vector<PointId> ids_;  ///< backing storage for record().ids
  ResultRecord record_;
  Status status_;
  uint64_t links_read_ = 0;
  uint64_t groups_read_ = 0;
};

/// Opens a result file, sniffing text vs binary from the leading bytes.
Result<std::unique_ptr<ResultCursor>> OpenResultCursor(
    const std::string& path);
/// Opens a result file in an explicitly chosen format (kNone is invalid).
Result<std::unique_ptr<ResultCursor>> OpenResultCursor(
    const std::string& path, OutputFormat format);

/// Replays every record of `cursor` into `sink` (links as Link, groups as
/// Group). Stops at the first cursor or sink error and returns it; the
/// caller still owns sink->Finish(). With a text-format sink whose id_width
/// matches the producer's, this decodes a binary result back to the
/// canonical text file byte-for-byte.
Status ReplayResult(ResultCursor* cursor, JoinSink* sink);

/// Parsed join output, materialized in memory. This is the consumer side of
/// the storage story — a server (e.g. the NVO scenario in the paper's
/// introduction) persists the compact output, then re-reads and expands it
/// when the client finally retrieves the result. Prefer a cursor when the
/// result may not fit in memory.
struct JoinOutput {
  std::vector<std::pair<PointId, PointId>> links;
  std::vector<std::vector<PointId>> groups;

  /// Total number of links the output implies (links + sum of C(k,2)),
  /// counting duplicates implied by overlapping groups.
  uint64_t ImpliedLinks() const {
    uint64_t total = links.size();
    for (const auto& g : groups) {
      total += g.size() * (g.size() - 1) / 2;
    }
    return total;
  }
};

/// Reads a whole join-output file (text or CSJ2, sniffed like
/// OpenResultCursor). Lines with fewer than two ids are rejected (a single
/// id implies nothing and is never emitted by the writers).
Result<JoinOutput> ReadJoinOutput(const std::string& path);

}  // namespace csj

#endif  // CSJ_CORE_RESULT_CURSOR_H_
