// Timing statistics for the benchmark: wall-clock stopwatches, percentiles
// with the ten-samples-beyond rule, and rates computed over wall time.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double NowSeconds();

/// Stopwatch over the steady (wall) clock.
class WallTimer {
 public:
  WallTimer() : start_(NowSeconds()) {}
  void Reset() { start_ = NowSeconds(); }
  double Seconds() const { return NowSeconds() - start_; }
  double Millis() const { return Seconds() * 1e3; }

 private:
  double start_;
};

/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

/// Work per second of wall time. Every rate the benchmark reports goes
/// through here: a rate over one thread's CPU time overstates threaded work.
double RatePerWallSecond(double work, double wall_seconds);

/// Linearly interpolated q-quantile (q in [0, 1]) of `values`, the
/// definition numpy calls "linear". 0 for an empty input.
double Quantile(std::vector<double> values, double q);

double Median(const std::vector<double>& values);

/// Samples ranked strictly above the p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double percentile);

/// A percentile is reported only with at least ten samples beyond it.
bool SupportsPercentile(size_t n, double percentile);

/// The highest of p99.9, p99, p90 and p50 that n samples support, or 0 when
/// n supports none of them.
double HighestSupportedPercentile(size_t n);

/// One reported percentile and the sample count behind it.
struct PercentileValue {
  double percentile = 0.0;
  double value = 0.0;
  size_t n = 0;
};

/// The requested percentile of `values`, with the sample count; whether n
/// supports it is for the caller to check (SupportsPercentile).
PercentileValue Percentile(const std::vector<double>& values,
                           double percentile);

/// The median over fixed windows of each window's percentile, so that a
/// burst confined to one window (a host stall, a swap) moves one window's
/// value, not the result. `keys` place each sample in window
/// floor(key / window). Windows too small to support the percentile are
/// skipped; with none left this is the plain percentile. `n` counts all
/// samples.
PercentileValue WindowedPercentile(const std::vector<double>& values,
                                   const std::vector<double>& keys,
                                   double window, double percentile);

/// "p90=12.3 (n=100, 10 beyond; highest supported p90)", for the report.
std::string DescribePercentile(const PercentileValue& p);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
