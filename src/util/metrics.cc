#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/env.h"
#include "util/trace.h"

namespace aneci {

namespace metrics_internal {

std::atomic<bool> g_enabled{true};

int AcquireShardIndex() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
}

}  // namespace metrics_internal

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t b) { return std::bit_cast<double>(b); }

void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old = bits->load(kRelaxed);
  while (!bits->compare_exchange_weak(old, DoubleBits(BitsDouble(old) + delta),
                                      kRelaxed)) {
  }
}

void AtomicMinDouble(std::atomic<uint64_t>* bits, double v) {
  uint64_t old = bits->load(kRelaxed);
  while (BitsDouble(old) > v &&
         !bits->compare_exchange_weak(old, DoubleBits(v), kRelaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<uint64_t>* bits, double v) {
  uint64_t old = bits->load(kRelaxed);
  while (BitsDouble(old) < v &&
         !bits->compare_exchange_weak(old, DoubleBits(v), kRelaxed)) {
  }
}

}  // namespace

const char* MetricClassName(MetricClass cls) {
  return cls == MetricClass::kDeterministic ? "det" : "sched";
}

uint64_t Counter::Value() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard.value.load(kRelaxed);
  return sum;
}

void Counter::Reset() {
  for (auto& shard : shards_) shard.value.store(0, kRelaxed);
}

void Gauge::Set(double value) {
  if (!MetricsEnabled()) return;
  bits_.store(DoubleBits(value), kRelaxed);
}

double Gauge::Value() const { return BitsDouble(bits_.load(kRelaxed)); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      sum_bits_(DoubleBits(0.0)),
      min_bits_(DoubleBits(std::numeric_limits<double>::infinity())),
      max_bits_(DoubleBits(-std::numeric_limits<double>::infinity())) {}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  size_t b = 0;
  while (b < bounds_.size() && value > bounds_[b]) ++b;
  buckets_[b].fetch_add(1, kRelaxed);
  count_.fetch_add(1, kRelaxed);
  AtomicAddDouble(&sum_bits_, value);
  AtomicMinDouble(&min_bits_, value);
  AtomicMaxDouble(&max_bits_, value);
}

uint64_t Histogram::Count() const { return count_.load(kRelaxed); }
double Histogram::Sum() const { return BitsDouble(sum_bits_.load(kRelaxed)); }
double Histogram::Min() const { return BitsDouble(min_bits_.load(kRelaxed)); }
double Histogram::Max() const { return BitsDouble(max_bits_.load(kRelaxed)); }

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(kRelaxed);
  return out;
}

double HistogramQuantile(const Histogram& histogram, double q) {
  const uint64_t count = histogram.Count();
  if (count == 0) return 0.0;
  if (q <= 0.0) return histogram.Min();
  if (q >= 1.0) return histogram.Max();
  const std::vector<uint64_t> buckets = histogram.BucketCounts();
  const std::vector<double>& bounds = histogram.bounds();
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside bucket i: lower edge is the previous bound (or the
    // observed min for the first bucket), upper edge the bucket's bound (or
    // the observed max for the overflow bucket).
    const double lo = i == 0 ? std::min(histogram.Min(), bounds.front())
                             : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : histogram.Max();
    if (buckets[i] == 0 || hi <= lo) return hi;
    const double within =
        (rank - static_cast<double>(cumulative - buckets[i])) /
        static_cast<double>(buckets[i]);
    // Clamp to the observed range: interpolation inside a coarse bucket must
    // never report a quantile outside [Min, Max] (e.g. p50 > max when every
    // observation sits below the first bound).
    return std::clamp(lo + within * (hi - lo), histogram.Min(),
                      histogram.Max());
  }
  return histogram.Max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, kRelaxed);
  count_.store(0, kRelaxed);
  sum_bits_.store(DoubleBits(0.0), kRelaxed);
  min_bits_.store(DoubleBits(std::numeric_limits<double>::infinity()),
                  kRelaxed);
  max_bits_.store(DoubleBits(-std::numeric_limits<double>::infinity()),
                  kRelaxed);
}

void TelemetryRing::Append(std::string json_line) {
  if (!MetricsEnabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (lines_.size() == capacity_ && capacity_ > 0) {
    lines_.pop_front();
    ++dropped_;
  }
  if (capacity_ > 0) lines_.push_back(std::move(json_line));
}

std::vector<std::string> TelemetryRing::Lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lines_.begin(), lines_.end()};
}

uint64_t TelemetryRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TelemetryRing::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
  dropped_ = 0;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     MetricClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) return it->second.counter;
  counters_.emplace_back();
  Entry entry;
  entry.kind = "counter";
  entry.cls = cls;
  entry.counter = &counters_.back();
  entries_.emplace(name, entry);
  return entry.counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, MetricClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) return it->second.gauge;
  gauges_.emplace_back();
  Entry entry;
  entry.kind = "gauge";
  entry.cls = cls;
  entry.gauge = &gauges_.back();
  entries_.emplace(name, entry);
  return entry.gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         MetricClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) return it->second.histogram;
  histograms_.emplace_back(std::move(bounds));
  Entry entry;
  entry.kind = "histogram";
  entry.cls = cls;
  entry.histogram = &histograms_.back();
  entries_.emplace(name, entry);
  return entry.histogram;
}

TelemetryRing* MetricsRegistry::GetRing(const std::string& name,
                                        size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(name);
  if (it != rings_.end()) return it->second;
  ring_storage_.emplace_back(capacity);
  rings_.emplace(name, &ring_storage_.back());
  return &ring_storage_.back();
}

void MetricsRegistry::set_enabled(bool enabled) {
  metrics_internal::g_enabled.store(enabled, kRelaxed);
}

std::vector<MetricRecord> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricRecord> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricRecord rec;
    rec.name = name;
    rec.kind = entry.kind;
    rec.cls = entry.cls;
    if (entry.counter != nullptr) {
      rec.count = entry.counter->Value();
    } else if (entry.gauge != nullptr) {
      rec.value = entry.gauge->Value();
    } else {
      rec.count = entry.histogram->Count();
      rec.value = entry.histogram->Sum();
      rec.min = entry.histogram->Min();
      rec.max = entry.histogram->Max();
      rec.bounds = entry.histogram->bounds();
      rec.buckets = entry.histogram->BucketCounts();
    }
    out.push_back(std::move(rec));
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
  for (auto& [name, ring] : rings_) {
    (void)name;
    ring->Reset();
  }
}

std::string JsonDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string U64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string DoubleArrayJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonDouble(values[i]);
  }
  return out + "]";
}

std::string U64ArrayJson(const std::vector<uint64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += U64(values[i]);
  }
  return out + "]";
}

std::string MetricLineJson(const MetricRecord& rec) {
  std::string line = "{\"type\":\"" + rec.kind + "\",\"name\":\"" +
                     JsonEscape(rec.name) + "\",\"class\":\"" +
                     MetricClassName(rec.cls) + "\"";
  if (rec.kind == "counter") {
    line += ",\"value\":" + U64(rec.count);
  } else if (rec.kind == "gauge") {
    line += ",\"value\":" + JsonDouble(rec.value);
  } else {
    line += ",\"count\":" + U64(rec.count) + ",\"sum\":" + JsonDouble(rec.value);
    if (rec.count > 0) {
      line += ",\"min\":" + JsonDouble(rec.min) +
              ",\"max\":" + JsonDouble(rec.max);
    }
    line += ",\"bounds\":" + DoubleArrayJson(rec.bounds) +
            ",\"buckets\":" + U64ArrayJson(rec.buckets);
  }
  return line + "}";
}

}  // namespace

std::vector<std::string> MetricsRegistry::SnapshotJsonl() const {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, ring] : rings_) {
      (void)name;
      for (std::string& line : ring->Lines()) lines.push_back(std::move(line));
    }
  }
  for (const MetricRecord& rec : Snapshot()) {
    lines.push_back(MetricLineJson(rec));
  }
  return lines;
}

Status WriteMetricsJsonl(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::string out;
  for (const std::string& line : MetricsRegistry::Global().SnapshotJsonl()) {
    out += line;
    out += '\n';
  }
  for (const SpanStat& span : TraceRegistry::Global().Snapshot()) {
    out += "{\"type\":\"span_count\",\"name\":\"" + JsonEscape(span.path) +
           "\",\"class\":\"det\",\"value\":" + U64(span.count) + "}\n";
  }
  for (const SpanStat& span : TraceRegistry::Global().Snapshot()) {
    out += "{\"type\":\"span_time\",\"name\":\"" + JsonEscape(span.path) +
           "\",\"class\":\"sched\",\"total_ms\":" + JsonDouble(span.total_ms) +
           ",\"min_ms\":" + JsonDouble(span.min_ms) +
           ",\"max_ms\":" + JsonDouble(span.max_ms) + "}\n";
  }
  return env->WriteFileAtomic(path, out);
}

// ---------------------------------------------------------------------------
// stats pretty-printer
// ---------------------------------------------------------------------------

namespace {

/// Finds `"key":` in a single JSONL object and returns the character index
/// just past the colon, or npos.
size_t FindValue(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  return pos + needle.size();
}

bool ExtractString(const std::string& line, const std::string& key,
                   std::string* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"')
    return false;
  const size_t end = line.find('"', pos + 1);
  if (end == std::string::npos) return false;
  *out = line.substr(pos + 1, end - pos - 1);
  return true;
}

bool ExtractDouble(const std::string& line, const std::string& key,
                   double* out) {
  const size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + pos, &end);
  return end != line.c_str() + pos;
}

std::string FormatCount(uint64_t v) { return U64(v); }

/// Compact human form: integers render bare, other doubles with %.6g.
std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

struct StatsLine {
  std::string type;
  std::string name;
  std::string cls;
  std::string raw;
};

void AppendRow(std::string* out, const std::string& name,
               const std::string& value, const std::string& suffix) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-44s %12s%s\n", name.c_str(),
                value.c_str(), suffix.c_str());
  *out += buf;
}

}  // namespace

StatusOr<std::string> FormatStatsReport(const std::string& jsonl,
                                        bool zero_timings) {
  std::vector<StatsLine> counters, gauges, histograms, span_counts, span_times,
      epochs, events, others;
  int line_no = 0;
  size_t start = 0;
  while (start <= jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty() || line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    StatsLine parsed;
    parsed.raw = line;
    if (line.front() != '{' || !ExtractString(line, "type", &parsed.type)) {
      return Status::InvalidArgument("stats: line " + std::to_string(line_no) +
                                     " is not a metrics JSONL record");
    }
    (void)ExtractString(line, "name", &parsed.name);
    (void)ExtractString(line, "class", &parsed.cls);
    if (parsed.type == "counter") {
      counters.push_back(std::move(parsed));
    } else if (parsed.type == "gauge") {
      gauges.push_back(std::move(parsed));
    } else if (parsed.type == "histogram") {
      histograms.push_back(std::move(parsed));
    } else if (parsed.type == "span_count") {
      span_counts.push_back(std::move(parsed));
    } else if (parsed.type == "span_time") {
      span_times.push_back(std::move(parsed));
    } else if (parsed.type == "epoch") {
      epochs.push_back(std::move(parsed));
    } else if (parsed.type == "event") {
      events.push_back(std::move(parsed));
    } else {
      others.push_back(std::move(parsed));
    }
  }

  // span_time totals keyed by path, for the span table.
  std::map<std::string, double> span_ms;
  for (const StatsLine& s : span_times) {
    double total = 0.0;
    (void)ExtractDouble(s.raw, "total_ms", &total);
    span_ms[s.name] = zero_timings ? 0.0 : total;
  }

  char head[160];
  std::snprintf(head, sizeof(head),
                "metrics report: %zu counters, %zu gauges, %zu histograms, "
                "%zu spans, %zu epoch records\n",
                counters.size(), gauges.size(), histograms.size(),
                span_counts.size(), epochs.size());
  std::string out = head;

  if (!counters.empty()) {
    out += "\ncounters\n";
    for (const StatsLine& c : counters) {
      double value = 0.0;
      (void)ExtractDouble(c.raw, "value", &value);
      AppendRow(&out, c.name, FormatValue(value),
                c.cls == "sched" ? "  [sched]" : "");
    }
  }
  if (!gauges.empty()) {
    out += "\ngauges\n";
    for (const StatsLine& g : gauges) {
      double value = 0.0;
      (void)ExtractDouble(g.raw, "value", &value);
      if (zero_timings && g.cls == "sched") value = 0.0;
      AppendRow(&out, g.name, FormatValue(value),
                g.cls == "sched" ? "  [sched]" : "");
    }
  }
  if (!histograms.empty()) {
    out += "\nhistograms\n";
    for (const StatsLine& h : histograms) {
      double count = 0.0, sum = 0.0;
      (void)ExtractDouble(h.raw, "count", &count);
      (void)ExtractDouble(h.raw, "sum", &sum);
      if (zero_timings && h.cls != "det") sum = 0.0;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  %-44s count=%s sum=%s%s\n",
                    h.name.c_str(),
                    FormatCount(static_cast<uint64_t>(count)).c_str(),
                    FormatValue(sum).c_str(),
                    h.cls == "sched" ? "  [sched]" : "");
      out += buf;
    }
  }
  if (!span_counts.empty()) {
    out += zero_timings ? "\nspans (count, total ms; timings zeroed)\n"
                        : "\nspans (count, total ms)\n";
    for (const StatsLine& s : span_counts) {
      double count = 0.0;
      (void)ExtractDouble(s.raw, "value", &count);
      const auto it = span_ms.find(s.name);
      const double ms = it == span_ms.end() ? 0.0 : it->second;
      char buf[192];
      std::snprintf(buf, sizeof(buf), "  %-44s %10s %12.3f\n", s.name.c_str(),
                    FormatCount(static_cast<uint64_t>(count)).c_str(), ms);
      out += buf;
    }
  }
  if (!epochs.empty()) {
    double first_loss = 0.0, last_loss = 0.0, first_epoch = 0.0,
           last_epoch = 0.0;
    (void)ExtractDouble(epochs.front().raw, "loss", &first_loss);
    (void)ExtractDouble(epochs.front().raw, "epoch", &first_epoch);
    (void)ExtractDouble(epochs.back().raw, "loss", &last_loss);
    (void)ExtractDouble(epochs.back().raw, "epoch", &last_epoch);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\ntraining: %zu epoch records (epoch %s loss %s -> epoch "
                  "%s loss %s)\n",
                  epochs.size(), FormatValue(first_epoch).c_str(),
                  FormatValue(first_loss).c_str(),
                  FormatValue(last_epoch).c_str(),
                  FormatValue(last_loss).c_str());
    out += buf;
  }
  if (!events.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\nevents: %zu\n", events.size());
    out += buf;
    for (const StatsLine& e : events) {
      double epoch = -1.0;
      const bool has_epoch = ExtractDouble(e.raw, "epoch", &epoch);
      AppendRow(&out, e.name,
                has_epoch ? "epoch " + FormatValue(epoch) : std::string("-"),
                "");
    }
  }
  if (!others.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\nunrecognized records: %zu\n",
                  others.size());
    out += buf;
  }
  return out;
}

}  // namespace aneci
