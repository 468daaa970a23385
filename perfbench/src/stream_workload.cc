// stream-refresh: StreamEngine over the full Cora analogue with a clean
// churn stream of small batches (khops=1). Every refreshed batch publishes
// into an in-process EmbedService, so this workload covers stream/* and the
// write side of serve (artifact build and swap), which no other workload
// reaches.
//
// The untraced run replays the whole stream once through a fresh engine,
// timing each batch. The traced pass rebuilds StreamEngine::ProcessBatch
// from public calls with a span around each, and checks that its batch
// summaries equal the engine's byte for byte.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/aneci.h"
#include "data/datasets.h"
#include "defense/defense.h"
#include "graph/modularity.h"
#include "serve/model_artifact.h"
#include "serve/model_snapshot.h"
#include "serve/service.h"
#include "stream/drift_monitor.h"
#include "stream/event_log.h"
#include "stream/incremental.h"
#include "stream/scenario.h"
#include "stream/stream_engine.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace st = aneci::stream;
using aneci::Matrix;

constexpr int kDegreeBuckets = 64;  // As the engine's degree-shift signal.
// The seed model: the engine starts from a trained embedding.
constexpr int kSeedEpochs = 80;
constexpr int kSeedEmbedDim = 16;
// A clean churn stream of small batches refreshing one hop around each
// touched node: about 30 ms a batch, so 130 batches give a p90 with ten
// batches beyond it in a few seconds.
constexpr int kBatches = 130;
constexpr int kEventsPerBatch = 2;
constexpr int kKhops = 1;
// Set-up includes the seed training (about 2 s); the median of three.
constexpr int kSetupRepeats = 3;
// The traced pass replays a prefix of the stream twice (engine, replica).
constexpr int kTraceBatches = 40;

struct StreamSetup {
  aneci::Dataset dataset;
  Matrix z, p;
  std::vector<st::EventBatch> batches;
  size_t events = 0;
};

st::StreamEngineOptions EngineOptions(const Options& options,
                                      aneci::serve::EmbedService* publish) {
  st::StreamEngineOptions o;
  o.refresh.khops = kKhops;
  o.seed = options.seed;
  o.publish = publish;
  return o;
}

std::unique_ptr<aneci::serve::EmbedService> FreshService(
    const StreamSetup& s) {
  return std::make_unique<aneci::serve::EmbedService>(
      std::make_shared<const aneci::serve::ModelSnapshot>(
          aneci::serve::BuildModelArtifact(s.dataset.graph, s.z, s.p), 1,
          "seed"));
}

std::vector<int> DegreeHistogram(const aneci::Graph& graph) {
  std::vector<int> hist(kDegreeBuckets, 0);
  for (int u = 0; u < graph.num_nodes(); ++u)
    ++hist[std::min(graph.Degree(u), kDegreeBuckets - 1)];
  return hist;
}

double TotalVariation(const std::vector<int>& a, const std::vector<int>& b) {
  double total_a = 0.0, total_b = 0.0;
  for (int x : a) total_a += x;
  for (int x : b) total_b += x;
  if (total_a == 0.0 || total_b == 0.0) return 0.0;
  double tv = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    tv += std::abs(a[i] / total_a - b[i] / total_b);
  return 0.5 * tv;
}

/// Generates the graph, trains the seed model and makes the event stream.
/// Small-scale runs (the smoke test) also shorten the stream.
StreamSetup MakeSetup(const Options& options, int batches) {
  StreamSetup s;
  s.dataset = aneci::MakeCora(options.seed, options.scale);
  aneci::AneciConfig config;
  config.embed_dim = kSeedEmbedDim;
  config.epochs = kSeedEpochs;
  config.seed = options.seed;
  aneci::AneciResult trained = aneci::Aneci(config).Train(s.dataset.graph);
  s.z = std::move(trained.z);
  s.p = std::move(trained.p);
  st::StreamScenarioOptions scenario;
  scenario.batches = std::max(
      10, static_cast<int>(batches * std::min(1.0, options.scale * 4)));
  scenario.events_per_batch = kEventsPerBatch;
  scenario.seed = options.seed;
  auto stream = st::MakeEventStream(s.dataset.graph, scenario);
  if (!stream.ok()) throw std::runtime_error(stream.status().ToString());
  s.batches = std::move(stream).value();
  for (const st::EventBatch& b : s.batches) s.events += b.events.size();
  return s;
}

struct PassResult {
  std::string summary;
  std::vector<double> batch_ms;
  double seconds = 0.0;
  int vetoes = 0;
  uint64_t failed = 0;
};

/// One untraced pass through StreamEngine::ProcessBatch.
PassResult EnginePass(const Options& options, const StreamSetup& s) {
  PassResult out;
  auto service = FreshService(s);
  auto engine = st::StreamEngine::Create(s.dataset.graph, s.z, s.p,
                                         EngineOptions(options, service.get()));
  if (!engine.ok()) {
    out.failed = s.batches.size();
    return out;
  }
  WallTimer pass;
  for (const st::EventBatch& batch : s.batches) {
    WallTimer t;
    const bool ok = engine.value()->ProcessBatch(batch).ok();
    out.batch_ms.push_back(t.Millis());
    if (!ok) ++out.failed;
  }
  out.seconds = pass.Seconds();
  out.summary = engine.value()->SummaryJsonl();
  out.vetoes = engine.value()->refresh_vetoes();
  return out;
}

/// StreamEngine::ProcessBatch rebuilt from public calls, traced.
PassResult TracedReplica(const Options& options, const StreamSetup& s,
                         Tracer* tracer, Result* result) {
  PassResult out;
  auto service = FreshService(s);
  const st::StreamEngineOptions opts = EngineOptions(options, service.get());
  auto pipeline = aneci::ParseDefensePipeline(opts.defense_spec);
  if (!pipeline.ok()) {
    out.failed = s.batches.size();
    return out;
  }
  aneci::Graph graph = s.dataset.graph;
  Matrix z = s.z, p = s.p;
  st::DriftMonitor monitor(opts.monitor);
  aneci::Rng defense_rng(opts.seed ^ 0xdefe45eULL);
  Matrix healthy_z = z, healthy_p = p;
  std::vector<int> healthy_degrees = DegreeHistogram(graph);
  std::vector<int> prev_assignment = aneci::ArgmaxAssignment(p);
  std::vector<int> suspect_region;
  std::vector<double> region_nodes;
  int refreshed_batches = 0;

  WallTimer pass;
  for (const st::EventBatch& batch : s.batches) {
    const int64_t id = static_cast<int64_t>(batch.sequence);
    ScopedSpan batch_span(tracer, "batch", id);
    st::StreamBatchReport report;
    report.sequence = batch.sequence;
    aneci::StatusOr<st::BatchApplyReport> applied = [&] {
      ScopedSpan span(tracer, "stream.event_log.apply", id);
      return st::ApplyEventBatch(&graph, batch);
    }();
    if (!applied.ok()) {
      ++out.failed;
      continue;
    }
    report.edges_added = applied.value().edges_added;
    report.edges_removed = applied.value().edges_removed;
    report.attributes_updated = applied.value().attributes_updated;

    std::vector<int> region;
    {
      ScopedSpan span(tracer, "stream.incremental.frontier", id);
      region = st::FrontierRegion(graph, st::TouchedNodes(batch),
                                  opts.refresh.khops);
    }
    report.region_nodes = static_cast<int>(region.size());
    region_nodes.push_back(report.region_nodes);
    suspect_region.insert(suspect_region.end(), region.begin(), region.end());
    std::sort(suspect_region.begin(), suspect_region.end());
    suspect_region.erase(
        std::unique(suspect_region.begin(), suspect_region.end()),
        suspect_region.end());

    aneci::StatusOr<st::RefreshOutcome> refreshed = [&] {
      ScopedSpan span(tracer, "stream.incremental.refresh", id);
      return st::RefreshRegion(graph, region, opts.refresh,
                               opts.seed + batch.sequence, &z, &p);
    }();
    if (refreshed.ok()) {
      report.refreshed = refreshed.value().refreshed;
      refreshed_batches += report.refreshed ? 1 : 0;
    } else {
      report.refresh_vetoed = true;
      ++out.vetoes;
      z = healthy_z;
      p = healthy_p;
    }

    st::BatchObservation observation;
    {
      ScopedSpan span(tracer, "graph.modularity", id);
      observation.modularity =
          aneci::GeneralizedModularity(graph.Adjacency(), p);
    }
    const std::vector<int> assignment = aneci::ArgmaxAssignment(p);
    int changed = 0;
    for (size_t i = 0; i < assignment.size(); ++i)
      if (assignment[i] != prev_assignment[i]) ++changed;
    observation.churn = assignment.empty()
                            ? 0.0
                            : static_cast<double>(changed) / assignment.size();
    observation.degree_shift =
        TotalVariation(DegreeHistogram(graph), healthy_degrees);
    prev_assignment = assignment;

    const st::DriftDecision decision = monitor.Observe(observation);
    report.state = decision.state;
    report.breach_level = decision.breach_level;
    report.modularity = observation.modularity;
    report.churn = observation.churn;
    report.degree_shift = observation.degree_shift;
    report.baseline_modularity = decision.baseline_modularity;

    if (decision.entered_poisoning) {
      ScopedSpan span(tracer, "stream.defense", id);
      aneci::PurifiedGraph purified = aneci::RunDefensePipelineScoped(
          graph, pipeline.value(), defense_rng, suspect_region);
      graph = std::move(purified.graph);
      report.defense_invoked = true;
      report.defense_edges_dropped =
          purified.reports.empty() ? 0 : purified.reports[0].edges_dropped;
      auto recovered = st::RefreshRegion(
          graph, suspect_region, opts.refresh,
          opts.seed + batch.sequence + 0x5c0bedULL, &z, &p);
      if (!recovered.ok()) {
        z = healthy_z;
        p = healthy_p;
      }
    }

    if (monitor.state() == st::StreamHealth::kHealthy &&
        !report.refresh_vetoed) {
      healthy_z = z;
      healthy_p = p;
      healthy_degrees = DegreeHistogram(graph);
      suspect_region.clear();
    }

    if (!report.refresh_vetoed && (report.refreshed || report.defense_invoked)) {
      aneci::serve::ModelArtifact artifact = [&] {
        ScopedSpan span(tracer, "serve.model_artifact.build", id);
        return aneci::serve::BuildModelArtifact(graph, z, p);
      }();
      ScopedSpan span(tracer, "serve.service.swap_from_artifact", id);
      report.published_version =
          service
              ->SwapFromArtifact(std::move(artifact),
                                 "stream:batch=" + std::to_string(batch.sequence))
              ->version();
    }
    out.summary += report.ToJson();
    out.summary += "\n";
  }
  out.seconds = pass.Seconds();
  out.batch_ms = tracer->Durations("batch");
  result->Add("stream.incremental.region_nodes_p50", Median(region_nodes),
              "count");
  result->Add("stream.incremental.refresh_frac",
              s.batches.empty()
                  ? 0.0
                  : static_cast<double>(refreshed_batches) / s.batches.size(),
              "frac");
  return out;
}

void CheckPass(const PassResult& pass, const StreamSetup& setup,
               const std::string& what, Result* result) {
  result->CountOps(setup.batches.size(), pass.failed);
  result->Check(pass.vetoes == 0, what + ": zero refresh vetoes");
}

}  // namespace

Result RunStream(const Options& options) {
  Result result;
  aneci::MetricsRegistry::Global().set_enabled(false);
  StreamSetup setup;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&](int) {
    setup = MakeSetup(options, kBatches);
  });
  result.Note("graph: N=" + std::to_string(setup.dataset.graph.num_nodes()) +
              " M=" + std::to_string(setup.dataset.graph.num_edges()) + ", " +
              std::to_string(setup.batches.size()) + " batches, " +
              std::to_string(setup.events) + " events");

  // One pass over the whole stream, whatever --seconds says, so a faster
  // engine does the same work.
  const PassResult pass = EnginePass(options, setup);
  CheckPass(pass, setup, "stream pass", &result);
  AddEndToEnd(&result, setup_s, Percentile(pass.batch_ms, 50.0),
              Percentile(pass.batch_ms, 90.0),
              "batch (StreamEngine::ProcessBatch)",
              RatePerWallSecond(setup.events, pass.seconds),
              "events applied per wall second of processing");
  return result;
}

void TraceStream(const Options& options, Tracer* tracer, Result* result) {
  aneci::MetricsRegistry& registry = aneci::MetricsRegistry::Global();
  registry.set_enabled(false);
  const StreamSetup setup = MakeSetup(options, kTraceBatches);
  const PassResult plain = EnginePass(options, setup);
  CheckPass(plain, setup, "untraced stream pass", result);
  registry.ResetValues();
  registry.set_enabled(true);
  const PassResult traced = TracedReplica(options, setup, tracer, result);
  registry.set_enabled(false);
  CheckPass(traced, setup, "traced stream replica", result);
  result->Check(traced.summary == plain.summary,
                "traced replica's SummaryJsonl equals the engine's");
  AddTraceQuality(result, "stream",
                  Median(traced.batch_ms) / Median(plain.batch_ms) - 1.0,
                  tracer->Coverage("batch"), "batch");
  result->Add("stream.glue_ms", Median(tracer->SelfTimes("batch")), "ms");
  for (const char* span :
       {"stream.event_log.apply", "stream.incremental.frontier",
        "stream.incremental.refresh", "graph.modularity",
        "serve.model_artifact.build", "serve.service.swap_from_artifact"})
    result->Add(std::string(span) + "_ms", tracer->MedianMs(span), "ms");
}

}  // namespace perfbench
