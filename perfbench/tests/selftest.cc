// Self-tests of the benchmark's own machinery: the percentile helper's
// ten-samples-beyond rule, windowed percentiles, rates over wall time on a
// threaded probe, and span self time. Exits non-zero if any check fails.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TestTenBeyondRule() {
  Expect(SamplesBeyond(100, 90.0) == 10, "100 samples put 10 beyond p90");
  Expect(SupportsPercentile(100, 90.0), "p90 is supported by 100 samples");
  Expect(!SupportsPercentile(99, 90.0), "p90 is not supported by 99 samples");
  Expect(SupportsPercentile(1000, 99.0), "p99 is supported by 1000 samples");
  Expect(!SupportsPercentile(999, 99.0), "p99 is not supported by 999 samples");
  Expect(HighestSupportedPercentile(10000) == 99.9, "10000 samples reach p99.9");
  Expect(HighestSupportedPercentile(5000) == 99.0, "5000 samples reach p99");
  Expect(HighestSupportedPercentile(150) == 90.0, "150 samples reach p90");
  Expect(HighestSupportedPercentile(25) == 50.0, "25 samples reach p50 only");
  Expect(HighestSupportedPercentile(19) == 0.0, "19 samples reach nothing");
}

void TestQuantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(std::abs(Quantile(v, 0.5) - 50.5) < 1e-12, "median of 1..100 is 50.5");
  Expect(std::abs(Quantile(v, 0.9) - 90.1) < 1e-9, "p90 of 1..100 is 90.1");
  Expect(Quantile({}, 0.5) == 0.0, "quantile of nothing is 0");
}

void TestWindowedPercentile() {
  // Four windows of 1000 samples; one holds a burst of slow samples.
  std::vector<double> values, keys;
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 1000; ++i) {
      values.push_back(w == 2 && i < 100 ? 50.0 : 1.0 + i / 1000.0);
      keys.push_back(w + i / 1000.0);
    }
  const PercentileValue plain = Percentile(values, 99.0);
  const PercentileValue windowed = WindowedPercentile(values, keys, 1.0, 99.0);
  Expect(plain.value == 50.0, "a burst in one window sets the plain p99");
  Expect(windowed.value < 2.0, "the windowed p99 ignores a one-window burst");
  Expect(windowed.n == 4000, "the windowed percentile counts every sample");
  const PercentileValue sparse = WindowedPercentile({1.0, 2.0}, {0.0, 5.0},
                                                    1.0, 50.0);
  Expect(sparse.value == 1.5, "too-small windows fall back to the plain value");
}

/// Four threads each spin for a fixed wall interval while the calling
/// thread sleeps. A rate over the caller's CPU time would be enormous; the
/// rate over wall time must match work / elapsed.
void TestRateUsesWallTime() {
  constexpr int kThreads = 4;
  constexpr double kSpinSeconds = 0.2;
  std::atomic<uint64_t> work{0};
  const double cpu0 = ThreadCpuSeconds();
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      WallTimer mine;
      uint64_t local = 0;
      while (mine.Seconds() < kSpinSeconds) ++local;
      work += local;
    });
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.Seconds();
  const double caller_cpu = ThreadCpuSeconds() - cpu0;
  const double rate = RatePerWallSecond(static_cast<double>(work), elapsed);
  Expect(elapsed >= kSpinSeconds, "probe ran for its wall interval");
  Expect(std::abs(rate * elapsed - work) <= 1e-6 * work,
         "rate times wall time gives back the work");
  Expect(caller_cpu < 0.5 * elapsed,
         "the calling thread's CPU time is far below wall time");
  Expect(rate < static_cast<double>(work) / std::max(caller_cpu, 1e-9),
         "the wall-time rate is below the caller-CPU-time rate");
  Expect(RatePerWallSecond(1.0, 0.0) == 0.0, "a zero interval gives rate 0");
}

void TestSelfTime() {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "epoch", 0);
    {
      ScopedSpan child(&tracer, "child", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<double> self = tracer.SelfTimes("epoch");
  Expect(self.size() == 1 && self[0] >= 4.0 && self[0] < 15.0,
         "self time excludes the child span");
  Expect(tracer.spans()[1].parent == 0, "child span records its parent");
  const double coverage = tracer.Coverage("epoch");
  Expect(coverage > 0.5 && coverage < 1.0, "coverage is the child share");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTenBeyondRule();
  perfbench::TestQuantile();
  perfbench::TestWindowedPercentile();
  perfbench::TestRateUsesWallTime();
  perfbench::TestSelfTime();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
