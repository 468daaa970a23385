// In-memory span recorder for the traced pass. Spans are opened and closed
// from the benchmark's own files around calls into each layer's public
// functions; nothing inside the library is instrumented. Each span records
// its name, the span that encloses it, and the id of the epoch, request or
// batch it belongs to. Spans are kept in memory and written out at the end.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;   ///< Index of the enclosing span, -1 for a root.
    int64_t unit = -1; ///< Epoch, request or batch id; -1 for set-up work.
    double start_s = 0.0;
    double end_s = 0.0;
    double ms() const { return (end_s - start_s) * 1e3; }
  };

  /// Opens a span nested in the innermost open span. Single-threaded.
  int Begin(std::string name, int64_t unit);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ms of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  /// Median duration of the spans with this name; 0 when there are none.
  double MedianMs(const std::string& name) const;
  /// Duration minus the time covered by direct children, per span of `name`.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// Share of the summed wall time of spans named `root` that their direct
  /// children cover.
  double Coverage(const std::string& root) const;

  /// One JSON object per span, one per line.
  std::string ToJsonl() const;

 private:
  std::vector<double> ChildMs() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t unit)
      : tracer_(tracer), index_(tracer->Begin(std::move(name), unit)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
