/// \file
/// Unit tests of the benchmark's percentile and span self-time code.
/// Build and run: `cmake --build <build dir> --target csjbench_test` and
/// `ctest --test-dir <build dir>`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace.h"

namespace {

int g_failures = 0;

void ExpectNear(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, actual,
                 expected);
    ++g_failures;
  }
}

void TestPercentile() {
  using csjbench::Percentile;
  ExpectNear(Percentile({}, 0.5), 0.0, "empty");
  ExpectNear(Percentile({7.0}, 0.99), 7.0, "single sample");
  // Unsorted input; rank q*(n-1) with linear interpolation.
  const std::vector<double> v = {4, 1, 3, 2, 5};
  ExpectNear(Percentile(v, 0.0), 1.0, "min");
  ExpectNear(Percentile(v, 1.0), 5.0, "max");
  ExpectNear(Percentile(v, 0.5), 3.0, "odd median");
  ExpectNear(Percentile(v, 0.25), 2.0, "q1");
  ExpectNear(Percentile(v, 0.9), 4.6, "p90 interpolates");
  ExpectNear(csjbench::Median({1, 2, 3, 10}), 2.5, "even median");
  ExpectNear(Percentile(v, 2.0), 5.0, "q clamps above");
  std::vector<double> unsorted = {4.0, 1.0, 5.0, 2.0, 3.0};
  ExpectNear(csjbench::PercentileInPlace(unsorted, 0.9), 4.6,
             "in place interpolates");
  ExpectNear(unsorted.front(), 1.0, "in place sorts");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 0.99), 99.01, "p99 of 1..100");
}

void TestSelfTime() {
  csjbench::Tracer t(true);
  // parent [0, 100] with children [10, 30], [20, 50] (overlapping) and
  // [90, 120] (runs past the parent): covered = [10, 50] + [90, 100] = 50.
  const int parent = t.Add("parent", 0, 100, -1);
  t.Add("child", 10, 30, parent);
  t.Add("child", 20, 50, parent);
  const int late = t.Add("late", 90, 120, parent);
  // A grandchild only reduces its own parent's self time.
  t.Add("grandchild", 95, 100, late);
  const auto self = t.SelfSeconds();
  ExpectNear(self.at("parent"), 50e-9, "parent self time");
  ExpectNear(self.at("child"), 50e-9, "children self time (summed)");
  ExpectNear(self.at("late"), 25e-9, "late self time");
  ExpectNear(self.at("grandchild"), 5e-9, "leaf self time");
  ExpectNear(csjbench::Median(t.Durations("parent")), 100e-9, "parent total");
}

void TestNestingAndMerge() {
  csjbench::Tracer a(true);
  {
    csjbench::ScopedSpan outer(&a, "outer");
    csjbench::ScopedSpan inner(&a, "inner");
  }
  if (a.spans().size() != 2 || a.spans()[1].parent != 0 ||
      a.spans()[0].parent != -1) {
    std::fprintf(stderr, "FAIL scoped spans do not nest\n");
    ++g_failures;
  }
  csjbench::Tracer b(true);
  const int root = b.Add("root", 0, 10, -1);
  b.Add("leaf", 0, 5, root);
  a.Merge(b);
  if (a.spans().size() != 4 || a.spans()[3].parent != 2) {
    std::fprintf(stderr, "FAIL merge does not re-base parents\n");
    ++g_failures;
  }
  ExpectNear(a.SelfSeconds().at("root"), 5e-9, "merged self time");

  csjbench::Tracer off(false);
  {
    csjbench::ScopedSpan span(&off, "ignored");
  }
  if (!off.spans().empty() || off.Add("x", 0, 1, -1) != -1) {
    std::fprintf(stderr, "FAIL disabled tracer recorded a span\n");
    ++g_failures;
  }
  ExpectNear(csjbench::Median(a.Durations("root")), 10e-9, "durations");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestNestingAndMerge();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", g_failures);
    return EXIT_FAILURE;
  }
  std::printf("csjbench_test: all passed\n");
  return EXIT_SUCCESS;
}
