#include "stats.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double RatePerWallSecond(double work, double wall_seconds) {
  return wall_seconds > 0.0 ? work / wall_seconds : 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

size_t SamplesBeyond(size_t n, double percentile) {
  // Round the rank before taking the ceiling so that 90% of 100 is 90, not
  // 91 from a representation error in 0.9 * 100.
  const double rank = std::round(n * percentile / 100.0 * 1e9) / 1e9;
  const size_t at = static_cast<size_t>(std::ceil(rank));
  return at >= n ? 0 : n - at;
}

bool SupportsPercentile(size_t n, double percentile) {
  return SamplesBeyond(n, percentile) >= 10;
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0})
    if (SupportsPercentile(n, p)) return p;
  return 0.0;
}

PercentileValue Percentile(const std::vector<double>& values,
                           double percentile) {
  PercentileValue out;
  out.percentile = percentile;
  out.n = values.size();
  out.value = Quantile(values, percentile / 100.0);
  return out;
}

PercentileValue WindowedPercentile(const std::vector<double>& values,
                                   const std::vector<double>& keys,
                                   double window, double percentile) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < values.size() && i < keys.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max(0.0, keys[i] / window));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows)
    if (SupportsPercentile(w.size(), percentile))
      per_window.push_back(Quantile(w, percentile / 100.0));
  PercentileValue out = Percentile(values, percentile);
  if (!per_window.empty()) out.value = Median(per_window);
  return out;
}

std::string DescribePercentile(const PercentileValue& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%g=%.6g (n=%zu, %zu beyond; highest p%g)",
                p.percentile, p.value, p.n, SamplesBeyond(p.n, p.percentile),
                HighestSupportedPercentile(p.n));
  return buf;
}

}  // namespace perfbench
