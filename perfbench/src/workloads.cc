#include "workloads.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/metrics.h"

namespace perfbench {

namespace {

double ParseDouble(const std::string& key, const std::string& text) {
  size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size())
    throw std::invalid_argument("--" + key + ": not a number: " + text);
  return v;
}

std::vector<double> ParseList(const std::string& key, const std::string& text) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(ParseDouble(key, text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

Options Options::Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::invalid_argument("expected --key=value, got: " + arg);
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      o.seed = std::stoull(value);
    } else if (key == "seconds") {
      o.seconds = ParseDouble(key, value);
    } else if (key == "trace") {
      o.trace = ParseDouble(key, value) != 0.0;
    } else if (key == "scale") {
      o.scale = ParseDouble(key, value);
    } else if (key == "work-dir") {
      o.work_dir = value;
    } else if (key == "trace-out") {
      o.trace_out = value;
    } else if (key == "nmi-floor") {
      o.nmi_floor = ParseDouble(key, value);
    } else if (key == "ladder-qps") {
      o.ladder_qps = ParseList(key, value);
    } else if (key == "reference-qps") {
      o.reference_qps = ParseDouble(key, value);
    } else if (key == "p99-limit-ms") {
      o.p99_limit_ms = ParseDouble(key, value);
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  return o;
}

void Result::CountOps(uint64_t n, uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) correct_ = false;
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    notes_.push_back("CHECK FAILED: " + what);
  } else {
    notes_.push_back("check ok: " + what);
  }
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

uint64_t CounterValue(const char* name, aneci::MetricClass cls) {
  return aneci::MetricsRegistry::Global().GetCounter(name, cls)->Value();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void AddEndToEnd(Result* result, double setup_s, const PercentileValue& p50,
                 const PercentileValue& pt, const std::string& step_name,
                 double throughput_per_s, const std::string& throughput_name) {
  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("step_ms_p50", p50.value, "ms");
  result->Add("step_ms_tail", pt.value, "ms");
  result->Add("throughput_per_s", throughput_per_s, "1/s");
  result->Note("step = " + step_name + ": " + DescribePercentile(p50) + ", " +
               DescribePercentile(pt));
  result->Note("throughput_per_s = " + throughput_name);
  if (!SupportsPercentile(pt.n, pt.percentile))
    result->Note("warning: the tail percentile has fewer than ten samples "
                 "beyond it");
}

void AddTraceQuality(Result* result, const std::string& path,
                     double overhead_frac, double coverage_frac,
                     const std::string& step) {
  result->Add("trace_overhead_frac." + path, overhead_frac, "frac");
  result->Add("trace_coverage_frac." + path, coverage_frac, "frac");
  result->Check(coverage_frac >= 0.9,
                "traced spans cover >= 0.9 of " + step + " wall time (" +
                    std::to_string(coverage_frac) + ")");
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const char* k : {"spmm_xw1", "spmm_prop", "gemm_h1w2", "spmmt_xgrad",
                          "gemm_ta_w2grad"}) {
      const std::string base = std::string("linalg.kernels.") + k;
      out.push_back({base + "_ms", "ms"});
      out.push_back({base + "_gflops", "GFLOP/s"});
      out.push_back({base + "_bytes", "bytes"});
    }
    out.insert(out.end(), {
        {"linalg.kernels.matmul_flops", "flop"},
        {"linalg.kernels.spmm_flops", "flop"},
        {"linalg.sparse.spgemm_output_nnz", "count"},
        {"core.losses.recon_fwd_ms", "ms"},
        {"core.losses.modularity_fwd_ms", "ms"},
        {"core.losses.sample_pairs_ms", "ms"},
        {"core.trainer_glue_ms", "ms"},
        {"autograd.encoder_fwd_ms", "ms"},
        {"autograd.softmax_fwd_ms", "ms"},
        {"autograd.backward_ms", "ms"},
        {"autograd.adam_step_ms", "ms"},
        {"autograd.peak_bytes", "bytes"},
        {"graph.proximity_ms", "ms"},
        {"graph.normalized_adjacency_ms", "ms"},
        {"graph.modularity_ms", "ms"},
        {"util.thread_pool.parallel_for_calls.epoch", "count"},
        {"util.thread_pool.serial_fallback_frac.epoch", "frac"},
        {"util.thread_pool.parallel_for_calls.query", "count"},
        {"util.thread_pool.serial_fallback_frac.query", "frac"},
    });
    for (const char* op : {"lookup", "knn", "classify", "anomaly", "community"}) {
      out.push_back({std::string("serve.query_engine.execute_us_p50.") + op, "us"});
      out.push_back({std::string("serve.query_engine.execute_us_p99.") + op, "us"});
    }
    out.insert(out.end(), {
        {"serve.wire.parse_us", "us"},
        {"serve.wire.render_us", "us"},
        {"serve.wire.frame_us", "us"},
        {"serve.service.consume_us", "us"},
        {"serve.server.socket_residual_us", "us"},
        {"serve.service.batched_frac", "frac"},
        {"serve.gen_late_ms_p99", "ms"},
        {"serve.model_artifact.load_ms", "ms"},
        {"serve.model_artifact.build_ms", "ms"},
        {"serve.service.swap_ms", "ms"},
        {"serve.service.swap_from_artifact_ms", "ms"},
        {"stream.event_log.apply_ms", "ms"},
        {"stream.incremental.frontier_ms", "ms"},
        {"stream.incremental.refresh_ms", "ms"},
        {"stream.incremental.region_nodes_p50", "count"},
        {"stream.incremental.refresh_frac", "frac"},
        {"stream.glue_ms", "ms"},
    });
    for (const char* path : {"train", "serve", "stream"}) {
      out.push_back({std::string("trace_overhead_frac.") + path, "frac"});
      out.push_back({std::string("trace_coverage_frac.") + path, "frac"});
    }
    return out;
  }();
  return units;
}

}  // namespace perfbench
