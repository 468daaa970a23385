// Shared plumbing of the benchmark's workloads: the parsed command line,
// the result every workload fills in, and the per-layer metric helpers.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "util/metrics.h"
#include "tracer.h"

namespace perfbench {

/// Command line of one run. The limits a reader of the results needs to
/// know (NMI floor, ladder of offered rates, reference rate, p99 limit)
/// arrive as flags that run.py takes from perfbench/config.json; every other
/// workload parameter is a constant in the workload's source.
struct Options {
  /// Parses --key=value flags; throws std::invalid_argument on an unknown
  /// flag or a malformed value.
  static Options Parse(int argc, char** argv);

  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every input size; the smoke tests run at a small scale.
  double scale = 1.0;
  /// Directory, inside the checkout, for files a workload writes.
  std::string work_dir = ".bench_build/work";
  /// Where the traced pass writes its span log.
  std::string trace_out = ".bench_build/work/trace.jsonl";
  double nmi_floor = 0.0;
  std::vector<double> ladder_qps;
  double reference_qps = 3000.0;
  double p99_limit_ms = 20.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): outcome counts, the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run), and report
/// lines for humans.
class Result {
 public:
  /// Counts `n` attempted operations of which `failed` failed.
  void CountOps(uint64_t n, uint64_t failed);
  /// A correctness check: counted as one attempt, failed when !ok.
  void Check(bool ok, const std::string& what);

  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Current value of a registry counter.
uint64_t CounterValue(const char* name, aneci::MetricClass cls);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Runs `setup` `repeats` times and returns the median wall seconds.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    WallTimer timer;
    setup(i);
    seconds.push_back(timer.Seconds());
  }
  return Median(seconds);
}

/// Adds the end-to-end metrics every workload reports: the median and the
/// tail percentile of the per-step wall time (epoch, request or batch), and
/// the workload's throughput.
void AddEndToEnd(Result* result, double setup_s, const PercentileValue& p50,
                 const PercentileValue& tail, const std::string& step_name,
                 double throughput_per_s, const std::string& throughput_name);

/// Adds the traced pass's own figures for one path ("train", "serve" or
/// "stream"): its overhead against the same work untraced, and the share of
/// the step's wall time its layer spans cover, which must reach 0.9.
void AddTraceQuality(Result* result, const std::string& path,
                     double overhead_frac, double coverage_frac,
                     const std::string& step);

/// Every per-layer metric, with its unit. A traced run measures all of
/// them; main() fails the run if one is missing.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

Result RunTrain(const Options& options);
Result RunServe(const Options& options);
Result RunStream(const Options& options);

/// The traced pass of each path. Every traced run, whatever its workload,
/// runs all three, so that every per-layer metric is measured in each.
void TraceTrain(const Options& options, Tracer* tracer, Result* result);
void TraceServe(const Options& options, Tracer* tracer, Result* result);
void TraceStream(const Options& options, Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
