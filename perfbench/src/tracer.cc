#include "tracer.h"

#include <cstdio>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

int Tracer::Begin(std::string name, int64_t unit) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit;
  span.start_s = NowSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("tracer: spans must close innermost first");
  spans_[span].end_s = NowSeconds();
  open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

double Tracer::MedianMs(const std::string& name) const {
  return Median(Durations(name));
}

std::vector<double> Tracer::ChildMs() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[s.parent] += s.ms();
  return child;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  const std::vector<double> child = ChildMs();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(spans_[i].ms() - child[i]);
  return out;
}

double Tracer::Coverage(const std::string& root) const {
  const std::vector<double> child = ChildMs();
  double total = 0.0, covered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root) continue;
    total += spans_[i].ms();
    covered += child[i];
  }
  return total > 0.0 ? covered / total : 0.0;
}

std::string Tracer::ToJsonl() const {
  const std::vector<double> child = ChildMs();
  std::string out;
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"span\":%zu,\"name\":\"%s\",\"parent\":%d,\"unit\":%lld,"
                  "\"start_s\":%.9f,\"ms\":%.6f,\"self_ms\":%.6f}\n",
                  i, s.name.c_str(), s.parent, static_cast<long long>(s.unit),
                  s.start_s, s.ms(), s.ms() - child[i]);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
