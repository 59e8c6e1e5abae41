#include "trace.h"

#include <algorithm>
#include <utility>

namespace csjbench {

double Percentile(std::vector<double> values, double q) {
  return PercentileInPlace(values, q);
}

double PercentileInPlace(std::span<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back(),
                        trace_id_});
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, trace_id_});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Clip the children to the parent, then sum the union of the clipped
    // intervals in one sweep over their sorted starts.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, reach);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return out;
}

}  // namespace csjbench
