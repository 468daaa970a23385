// Process-global observability registry: named counters, gauges, and
// fixed-bucket histograms, plus a bounded telemetry ring of pre-rendered
// JSONL records (per-epoch training stats). Dependency-free and thread-safe.
//
// Determinism contract (see docs/observability.md):
//
//  * Counters are sharded per thread: Add() bumps one relaxed atomic slot,
//    Value() sums the slots. Integer addition is commutative, so merged
//    counter values depend only on *what work ran*, never on which thread
//    ran it — a counter of work items reports the same value at
//    ANECI_THREADS=1, 4 or 7.
//  * Every metric carries a MetricClass. kDeterministic metrics (work-item
//    counts, epoch losses) must be byte-identical across thread counts and
//    are compared by the determinism checks. kScheduling metrics (wall
//    time, helper-thread chunk claims, serial fallbacks) legitimately vary
//    and are excluded, the same way timings are.
//  * Snapshots iterate metrics in name order and render doubles with
//    %.17g, so two snapshots of identical state are byte-identical.
//
// Instrumentation can be turned off at runtime (MetricsRegistry::
// set_enabled(false)); a disabled Add()/Observe() is a single relaxed
// atomic load. perfbench's traced pass reports what switching it on costs
// on the real paths (trace_overhead_frac.{train,serve,stream}).
#ifndef ANECI_UTIL_METRICS_H_
#define ANECI_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace aneci {

class Env;

/// Classifies a metric for the determinism contract: kDeterministic values
/// must be identical for every ANECI_THREADS setting; kScheduling values
/// (timings, steal counts, serial fallbacks) may vary run to run.
enum class MetricClass { kDeterministic, kScheduling };

namespace metrics_internal {

/// Shard count for per-thread striping. A power of two; threads beyond
/// kShards wrap around and share slots (still correct, just contended).
inline constexpr int kShards = 64;

struct alignas(64) ShardSlot {
  std::atomic<uint64_t> value{0};
};

extern std::atomic<bool> g_enabled;

int AcquireShardIndex();

inline int ShardIndex() {
  thread_local const int index = AcquireShardIndex();
  return index;
}

}  // namespace metrics_internal

/// True when instrumentation is recording. Hot paths gate on this before
/// doing any work so a disabled registry costs one relaxed load.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event counter, sharded per thread. Value() merges shards by
/// integer summation, so it is invariant to how work was scheduled.
class Counter {
 public:
  void Add(uint64_t delta) {
    if (!MetricsEnabled()) return;
    shards_[metrics_internal::ShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over all shards.
  uint64_t Value() const;

  /// Zeroes every shard (used by snapshot-reset cycles in benches/tests).
  void Reset();

 private:
  metrics_internal::ShardSlot shards_[metrics_internal::kShards];
};

/// Last-writer-wins double value (learning rate, residual, config knobs).
class Gauge {
 public:
  void Set(double value);
  double Value() const;
  void Reset() { Set(0.0); }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// value <= bounds[i] (first match wins); values above the last bound land
/// in the overflow bucket. Bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  double Min() const;  ///< +inf when empty.
  double Max() const;  ///< -inf when empty.
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_;
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

/// Estimated q-quantile (q in [0, 1]) of a fixed-bucket histogram, by
/// linear interpolation within the bucket containing the rank. Exact at the
/// recorded Min()/Max() for q=0/1; bucket-resolution accurate in between
/// (always clamped to the observed [Min, Max]) — good enough for p50/p99
/// latency reporting, not for golden comparisons.
double HistogramQuantile(const Histogram& histogram, double q);

/// RAII latency probe: observes the elapsed milliseconds of its scope into a
/// histogram on destruction. This is the sanctioned way for instrumented code
/// to time itself — direct util/timer.h use outside util/{timer,trace,
/// metrics} is flagged by the banned-adhoc-timing lint check, which keeps all
/// wall-clock reads inside the observability layer (and hence out of the
/// deterministic metric class).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram) : histogram_(histogram) {
    if (MetricsEnabled()) timer_.Reset();
  }
  ~ScopedLatencyTimer() {
    if (MetricsEnabled() && histogram_ != nullptr)
      histogram_->Observe(timer_.Millis());
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  Timer timer_;
};

/// Bounded FIFO of pre-rendered JSONL records. Producers append complete
/// JSON objects (one per line, no trailing newline); when capacity is
/// exceeded the oldest record is dropped and `dropped()` counts it. Used
/// for the per-epoch training telemetry that `--metrics-out` persists.
class TelemetryRing {
 public:
  explicit TelemetryRing(size_t capacity) : capacity_(capacity) {}

  void Append(std::string json_line);

  std::vector<std::string> Lines() const;
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

  void Reset();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::string> lines_ ANECI_GUARDED_BY(mu_);
  uint64_t dropped_ ANECI_GUARDED_BY(mu_) = 0;
};

/// One registered metric, as reported by Snapshot(). `kind` is one of
/// "counter", "gauge", "histogram".
struct MetricRecord {
  std::string name;
  std::string kind;
  MetricClass cls = MetricClass::kDeterministic;
  uint64_t count = 0;        ///< counter value / histogram observation count
  double value = 0.0;        ///< gauge value / histogram sum
  double min = 0.0;          ///< histogram only
  double max = 0.0;          ///< histogram only
  std::vector<double> bounds;        ///< histogram only
  std::vector<uint64_t> buckets;     ///< histogram only
};

/// Process-global registry. Metrics are registered on first use and live
/// for the process lifetime, so hot paths cache the returned pointer in a
/// function-local static:
///
///   static Counter* flops = MetricsRegistry::Global().GetCounter(
///       "linalg/matmul/flops", MetricClass::kDeterministic);
///   flops->Add(2 * m * n * k);
///
/// Re-registering a name returns the existing metric; the class and (for
/// histograms) bounds of the first registration win.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name,
                      MetricClass cls = MetricClass::kDeterministic);
  Gauge* GetGauge(const std::string& name,
                  MetricClass cls = MetricClass::kDeterministic);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          MetricClass cls = MetricClass::kScheduling);
  TelemetryRing* GetRing(const std::string& name, size_t capacity = 4096);

  /// Runtime kill switch; disabled metrics cost one relaxed load per call.
  void set_enabled(bool enabled);
  bool enabled() const { return MetricsEnabled(); }

  /// All metrics, sorted by name (deterministic order).
  std::vector<MetricRecord> Snapshot() const;

  /// JSONL lines: first every ring record (rings in name order, records in
  /// insertion order), then one line per metric in name order. Each line
  /// carries "class":"det"|"sched"; timing-valued span lines are appended
  /// by WriteMetricsJsonl (see trace.h).
  std::vector<std::string> SnapshotJsonl() const;

  /// Zeroes every metric value and empties every ring, keeping all
  /// registrations (cached pointers stay valid).
  void ResetValues();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  struct Entry {
    std::string kind;
    MetricClass cls;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  std::map<std::string, Entry> entries_ ANECI_GUARDED_BY(mu_);
  std::map<std::string, TelemetryRing*> rings_ ANECI_GUARDED_BY(mu_);
  // Node-stable storage: pointers handed out live as long as the process.
  // The containers (registration) are guarded; the *elements* behind the
  // handed-out pointers are internally synchronized (atomics / their own
  // mu_) and accessed lock-free on hot paths.
  std::deque<Counter> counters_ ANECI_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ ANECI_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ ANECI_GUARDED_BY(mu_);
  std::deque<TelemetryRing> ring_storage_ ANECI_GUARDED_BY(mu_);
};

/// Renders `value` with %.17g — enough digits to round-trip a double, and
/// byte-stable for identical bits. All JSON emitted by this layer uses it.
std::string JsonDouble(double value);

/// Minimal JSON string escaping for metric names / messages.
std::string JsonEscape(const std::string& s);

/// Serializes the global registry (rings, metrics) plus the global trace
/// tree (span_count lines are deterministic, span_time lines are not) and
/// writes the JSONL atomically through `env`. This is the implementation
/// behind `aneci_cli --metrics-out=<path>`.
Status WriteMetricsJsonl(const std::string& path, Env* env);

/// Pretty-prints a metrics JSONL file (the `aneci_cli stats` subcommand).
/// With `zero_timings`, every wall-time field renders as 0 so output is
/// byte-stable for golden tests.
StatusOr<std::string> FormatStatsReport(const std::string& jsonl,
                                        bool zero_timings);

}  // namespace aneci

#endif  // ANECI_UTIL_METRICS_H_
