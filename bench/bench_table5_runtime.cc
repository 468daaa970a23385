// Reproduces Table V: running-time comparison across methods, via
// google-benchmark. Each benchmark trains one method end-to-end on the Cora
// analogue and reports wall time.
//
// On top of the wall-time table, every method's run is bracketed by a
// metrics/trace reset+snapshot, and the per-phase span breakdown (setup,
// epoch loop, final forward, ...) is written to
// <outdir>/table5_phases.csv — the observability layer's answer to "where
// does each method's time actually go".
//
// Bench flags (bench/common.h; peeled before google-benchmark sees argv):
//   --scale=<f>    Cora-analogue size multiplier (default 0.15)
//   --full         paper scale (scale 1.0 unless --scale is given)
//   --outdir=<d>   directory for table5_phases.csv (default "results")
// Full-scale Pubmed training, with its peak RSS and memory-planner
// footprint, is measured by perfbench's train-pubmed workload.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "embed/gcn_classifier.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/trace.h"

namespace aneci::bench {
namespace {

/// Set from the command line in main(), before any benchmark runs.
BenchEnv& TableEnv() {
  static auto* env = new BenchEnv();
  return *env;
}

const Dataset& CoraDataset() {
  static const Dataset* ds = new Dataset(MakeCora(42, TableEnv().scale));
  return *ds;
}

constexpr int kEpochs = 30;

/// Span aggregates collected per benchmarked method, flushed to CSV at exit.
/// (google-benchmark owns the timing loop, so phase rows are gathered as a
/// side effect and written from main after RunSpecifiedBenchmarks.)
std::map<std::string, std::vector<SpanStat>>& PhaseRows() {
  static auto* rows = new std::map<std::string, std::vector<SpanStat>>();
  return *rows;
}

/// Clears both registries so the upcoming run's spans are attributable to
/// exactly one method.
void ResetObservability() {
  MetricsRegistry::Global().ResetValues();
  TraceRegistry::Global().ResetValues();
}

void CapturePhases(const std::string& method) {
  PhaseRows()[method] = TraceRegistry::Global().Snapshot();
}

void BM_Embedder(benchmark::State& state, const std::string& name) {
  const Dataset& ds = CoraDataset();
  ResetObservability();
  for (auto _ : state) {
    Rng rng(7);
    auto embedder = CreateEmbedder(name);
    ANECI_CHECK(embedder.ok());
    EmbedOptions eo;
    eo.rng = &rng;
    eo.dim = 16;
    eo.epochs = kEpochs;
    Matrix z = embedder.value()->Embed(ds.graph, eo);
    benchmark::DoNotOptimize(z.data());
  }
  CapturePhases(name);
}

void BM_AnECI(benchmark::State& state) {
  const Dataset& ds = CoraDataset();
  ResetObservability();
  for (auto _ : state) {
    Rng rng(7);
    AneciConfig cfg;
    cfg.epochs = kEpochs;
    // The scalable default: sampled reconstruction (the paper's dense
    // N^2 decoder maps to a GPU-friendly op; the sampled loss is the CPU
    // equivalent, see DESIGN.md).
    cfg.reconstruction = ReconstructionMode::kSampled;
    AneciEmbedder embedder(cfg);
    EmbedOptions eo;
    eo.rng = &rng;
    Matrix z = embedder.Embed(ds.graph, eo);
    benchmark::DoNotOptimize(z.data());
  }
  CapturePhases("AnECI");
}

void BM_Gcn(benchmark::State& state, bool robust) {
  const Dataset& ds = CoraDataset();
  ResetObservability();
  for (auto _ : state) {
    Rng rng(7);
    GcnClassifier::Options opt;
    opt.epochs = kEpochs;
    opt.robust = robust;
    GcnClassifier model(opt);
    model.Fit(ds, rng);
    benchmark::DoNotOptimize(model.predictions().data());
  }
  CapturePhases(robust ? "RGCN" : "GCN");
}

void WritePhaseCsv() {
  Table table({"method", "phase", "count", "total_ms", "mean_ms"});
  for (const auto& [method, spans] : PhaseRows()) {
    for (const SpanStat& s : spans) {
      table.AddRow()
          .Add(method)
          .Add(s.path)
          .Add(std::to_string(s.count))
          .Add(JsonDouble(s.total_ms))
          .Add(JsonDouble(s.count ? s.total_ms / static_cast<double>(s.count)
                                  : 0.0));
    }
  }
  WriteBenchCsv(table, TableEnv(), "table5_phases.csv");
}

BENCHMARK_CAPTURE(BM_Embedder, DeepWalk, std::string("DeepWalk"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, LINE, std::string("LINE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, GAE, std::string("GAE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, VGAE, std::string("VGAE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, DGI, std::string("DGI"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, DANE, std::string("DANE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, DONE, std::string("DONE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, ADONE, std::string("ADONE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Embedder, AGE, std::string("AGE"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Gcn, GCN, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Gcn, RGCN, true)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnECI)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aneci::bench

int main(int argc, char** argv) {
  aneci::bench::TableEnv() =
      aneci::bench::BenchEnv::FromFlags(aneci::bench::Flags(argc, argv));
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && (arg == "--full" || arg.rfind("--scale=", 0) == 0 ||
                  arg.rfind("--outdir=", 0) == 0))
      continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  aneci::bench::WritePhaseCsv();
  return 0;
}
