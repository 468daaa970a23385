// The repository benchmark: one workload per process.
//
//   aneci_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                   [--scale=<f>] [--work-dir=<dir>] [--trace-out=<file>]
//                   [--nmi-floor=.. --ladder-qps=a,b,.. --reference-qps=..
//                    --p99-limit-ms=..]
//
// Prints a report, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. With --trace=0 the metrics are
// the workload's end-to-end metrics. With --trace=1 they are the per-layer
// metrics of the traced pass, which runs the traced replica of every path
// (train, serve, stream) whatever the workload, so each traced run
// measures every layer. Exits 1 when an output check failed.
// perfbench/run.py builds this binary and passes the limits recorded in
// perfbench/config.json.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "linalg/kernels/kernels.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string MachineStamp() {
  const char* threads_env = std::getenv("ANECI_THREADS");
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%ld,\"cpu\":\"%s\",\"l2_bytes\":%ld,\"l3_bytes\":%ld,"
      "\"kernel_backend\":\"%s\",\"aneci_threads\":\"%s\",\"pool_threads\":%d,"
      "\"build_type\":\"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      aneci::kernels::ActiveName(), threads_env ? threads_env : "unset",
      aneci::NumThreads(), PERFBENCH_BUILD_TYPE);
  return buf;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool IsWorkload(const std::string& name) {
  return name == "train-pubmed" || name == "serve-mixed" ||
         name == "stream-refresh";
}

/// The traced pass: every path's replica, one span log.
Result RunLayerSuite(const Options& options) {
  Result result;
  Tracer tracer;
  TraceTrain(options, &tracer, &result);
  TraceServe(options, &tracer, &result);
  TraceStream(options, &tracer, &result);
  std::ofstream out(options.trace_out);
  out << tracer.ToJsonl();
  if (!out)
    std::fprintf(stderr, "could not write %s\n", options.trace_out.c_str());
  return result;
}

int Main(int argc, char** argv) {
  const Options options = Options::Parse(argc, argv);
  if (!IsWorkload(options.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  std::printf("# machine: %s\n", MachineStamp().c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale);
  std::fflush(stdout);

  Result result;
  if (options.trace) {
    result = RunLayerSuite(options);
  } else if (options.workload == "train-pubmed") {
    result = RunTrain(options);
  } else if (options.workload == "serve-mixed") {
    result = RunServe(options);
  } else {
    result = RunStream(options);
  }

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result.metrics()) by_name[m.name] = &m;
  if (options.trace)
    for (const auto& [name, unit] : LayerMetricUnits())
      if (by_name.count(name) == 0)
        result.Check(false, "the traced pass measured " + name);
  for (const std::string& line : result.notes())
    std::printf("# %s\n", line.c_str());
  bool finite = true;
  std::string metrics;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    std::printf("%-44s %16.6g %s\n", name.c_str(), value, unit.c_str());
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + Number(value) +
               ",\"unit\":\"" + unit + "\"}";
  };
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = by_name.find(name);
      if (it != by_name.end()) emit(name, it->second->value, unit);
    }
  } else {
    for (const Metric& m : result.metrics()) emit(m.name, m.value, m.unit);
  }
  if (!finite) std::printf("# CHECK FAILED: a metric was not finite\n");
  const bool correct = result.correct() && finite;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed() + (finite ? 0 : 1)),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
