#ifndef CSJBENCH_TRACE_H_
#define CSJBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

/// \file
/// The benchmark's own measurement helpers: order statistics over samples
/// and an in-memory span recorder. Spans are recorded only here, around the
/// benchmark's calls into the library's modules — never inside the library.

namespace csjbench {

/// Monotonic clock reading in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// the closest ranks (rank q*(n-1), as numpy's default). 0 for no samples.
double Percentile(std::vector<double> values, double q);
/// Percentile() without the copy: sorts `values` in place.
double PercentileInPlace(std::span<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// One recorded interval. `parent` is the index of the enclosing span in
/// the same Tracer, or -1 for a root; `trace_id` groups the spans of one
/// operation (one join iteration, one served request).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t trace_id = 0;
};

/// Single-threaded span recorder. Begin/End nest like a call stack; a
/// disabled tracer records nothing and costs one branch per call. Each
/// client thread owns its own Tracer; Merge() combines them afterwards.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Opens a span under the innermost open span; returns its index (or -1
  /// when disabled).
  int Begin(const std::string& name);
  /// Closes span `index` (must be the innermost open span).
  void End(int index);
  /// Records an already-measured interval under span `parent` (-1: a
  /// root); returns its index (or -1 when disabled).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent);

  const std::vector<Span>& spans() const { return spans_; }
  /// Appends `other`'s spans, re-basing their parent indices.
  void Merge(const Tracer& other);

  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of self time per span name, in seconds: a span's duration minus
  /// the part of its interval that its direct children cover (overlapping
  /// children are counted once).
  std::map<std::string, double> SelfSeconds() const;

 private:
  bool enabled_;
  uint64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace csjbench

#endif  // CSJBENCH_TRACE_H_
