// train-pubmed: Aneci::Train on the full Pubmed analogue (N=19,717, d=500).
// At this size the trainer takes the sampled reconstruction, so the sparse
// and dense kernels dominate and the dense O(N^2 K) loss is absent.
//
// The untraced run times whole Train calls and the gaps between epoch
// callbacks with the metrics registry off. The traced pass rebuilds the
// trainer's epoch from public calls, in the trainer's RNG draw order, with a
// span around each layer call, and checks its per-epoch losses against the
// trainer's history.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/aneci.h"
#include "core/losses.h"
#include "data/datasets.h"
#include "graph/modularity.h"
#include "graph/proximity.h"
#include "linalg/kernels/kernels.h"
#include "linalg/sparse.h"
#include "tasks/metrics.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using aneci::Matrix;
using aneci::SparseMatrix;
using aneci::ag::VarPtr;

// Train calls of a fixed epoch count, repeated while --seconds leaves room
// for another, and at least twice: 2 x 50 gaps between callbacks put ten
// beyond the p90. Each call does the same work, so peak memory compares,
// and more calls average over more of the host's load.
constexpr int kEpochsPerCall = 51;
constexpr int kMinCalls = 2;
// The traced pass trains twice (untraced reference, traced replica), so it
// runs fewer epochs; the first epoch is left out of its medians.
constexpr int kTraceEpochs = 41;
// Generating the analogue takes about 0.1 s; set-up time is the median of
// this many generations.
constexpr int kSetupRepeats = 9;

struct TrainRun {
  aneci::AneciResult result;
  double train_s = 0.0;
  std::vector<double> epoch_ms;  ///< Gaps between consecutive callbacks.
};

TrainRun TimedTrain(const aneci::AneciConfig& config,
                    const aneci::Graph& graph) {
  TrainRun run;
  double last = -1.0;
  auto on_epoch = [&](const aneci::AneciEpochStats&, const Matrix&,
                      const Matrix&) {
    const double now = NowSeconds();
    if (last >= 0.0) run.epoch_ms.push_back((now - last) * 1e3);
    last = now;
  };
  WallTimer timer;
  run.result = aneci::Aneci(config).Train(graph, on_epoch);
  run.train_s = timer.Seconds();
  return run;
}

double Nmi(const Matrix& p, const aneci::Graph& graph) {
  return aneci::NormalizedMutualInformation(aneci::ArgmaxAssignment(p),
                                            graph.labels());
}

/// Compulsory bytes of a CSR operand: values, column indices, row pointers.
double CsrBytes(const SparseMatrix& s) {
  return s.nnz() * (sizeof(double) + sizeof(int)) +
         (s.rows() + 1.0) * sizeof(int64_t);
}

double DenseBytes(int rows, int cols) {
  return static_cast<double>(rows) * cols * sizeof(double);
}

/// Times one kernel call at a training shape: median wall ms over repeats,
/// the rate over that wall time, and the computed compulsory bytes.
template <typename Fn>
void TimeKernel(Result* result, const std::string& name, double flops,
                double bytes, Fn&& call) {
  std::vector<double> ms;
  WallTimer total;
  while (ms.size() < 5 || (total.Seconds() < 0.2 && ms.size() < 200)) {
    WallTimer t;
    call();
    ms.push_back(t.Millis());
  }
  const double median_ms = Median(ms);
  const std::string base = "linalg.kernels." + name;
  result->Add(base + "_ms", median_ms, "ms");
  result->Add(base + "_gflops",
              RatePerWallSecond(flops, median_ms * 1e-3) * 1e-9, "GFLOP/s");
  result->Add(base + "_bytes", bytes, "bytes");
}

/// The trainer's epoch loop rebuilt from public calls, traced. Returns the
/// per-epoch statistics for comparison with AneciResult::history.
std::vector<aneci::AneciEpochStats> TracedReplica(
    const aneci::AneciConfig& cfg, const aneci::Graph& graph, Tracer* tracer,
    Result* result) {
  namespace ag = aneci::ag;
  aneci::MetricsRegistry& registry = aneci::MetricsRegistry::Global();
  const uint64_t spgemm_before = CounterValue(
      "linalg/spgemm/output_nnz", aneci::MetricClass::kDeterministic);
  const int n = graph.num_nodes();
  aneci::Rng rng(cfg.seed);

  SparseMatrix s_norm, x_sparse, proximity;
  Matrix features;
  {
    ScopedSpan setup(tracer, "setup", -1);
    {
      ScopedSpan s(tracer, "graph.normalized_adjacency", -1);
      s_norm = graph.NormalizedAdjacency();
    }
    features = graph.FeaturesOrIdentity();
    x_sparse = SparseMatrix::FromDense(features);
    ScopedSpan s(tracer, "graph.proximity", -1);
    proximity = aneci::HighOrderProximity(graph, cfg.proximity);
  }
  result->Add("linalg.sparse.spgemm_output_nnz",
              static_cast<double>(
                  CounterValue("linalg/spgemm/output_nnz",
                               aneci::MetricClass::kDeterministic) -
                  spgemm_before),
              "count");
  const double two_m_scale = proximity.SumAll();
  const bool dense_recon =
      cfg.reconstruction == aneci::ReconstructionMode::kDense ||
      (cfg.reconstruction == aneci::ReconstructionMode::kAuto &&
       n <= cfg.dense_threshold);

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(features.cols(), cfg.hidden_dim, rng));
  auto b1 = ag::MakeParameter(Matrix(1, cfg.hidden_dim));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(cfg.hidden_dim, cfg.embed_dim, rng));
  auto b2 = ag::MakeParameter(Matrix(1, cfg.embed_dim));
  ag::Adam::Options adam;
  adam.lr = cfg.lr;
  adam.weight_decay = cfg.weight_decay;
  ag::Adam optimizer({w1, b1, w2, b2}, adam);

  std::vector<ag::PairTarget> pairs;
  if (!dense_recon) {
    ScopedSpan s(tracer, "core.losses.sample_pairs", -1);
    pairs = aneci::SampleReconstructionPairs(proximity, cfg.negatives_per_node,
                                             rng);
  }

  const uint64_t matmul0 =
      CounterValue("linalg/matmul/flops", aneci::MetricClass::kDeterministic);
  const uint64_t spmm0 =
      CounterValue("linalg/spmm/flops", aneci::MetricClass::kDeterministic);
  const uint64_t pf0 = CounterValue("threadpool/parallel_for/calls",
                                    aneci::MetricClass::kDeterministic);
  const uint64_t serial0 = CounterValue("threadpool/serial_fallbacks",
                                        aneci::MetricClass::kScheduling);

  std::vector<aneci::AneciEpochStats> history;
  Matrix last_xw, last_h1, last_z;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    ScopedSpan epoch_span(tracer, "epoch", epoch);
    if (!dense_recon && cfg.resample_every > 0 && epoch > 0 &&
        epoch % cfg.resample_every == 0) {
      ScopedSpan s(tracer, "core.losses.sample_pairs", epoch);
      pairs = aneci::SampleReconstructionPairs(proximity,
                                               cfg.negatives_per_node, rng);
    }
    optimizer.ZeroGrad();
    VarPtr xw, h1, z, p, q, recon;
    {
      ScopedSpan s(tracer, "autograd.encoder_fwd", epoch);
      xw = ag::SpMM(&x_sparse, w1);
      h1 = ag::LeakyRelu(ag::AddRowBroadcast(ag::SpMM(&s_norm, xw), b1),
                         cfg.leaky_relu_alpha);
      z = ag::AddRowBroadcast(ag::SpMM(&s_norm, ag::MatMul(h1, w2)), b2);
    }
    {
      ScopedSpan s(tracer, "autograd.softmax_fwd", epoch);
      p = ag::RowSoftmax(z);
    }
    {
      ScopedSpan s(tracer, "core.losses.modularity_fwd", epoch);
      q = aneci::GeneralizedModularityLoss(&proximity, p);
    }
    {
      ScopedSpan s(tracer, "core.losses.recon_fwd", epoch);
      recon = dense_recon ? aneci::DenseReconstructionLoss(&proximity, p)
                          : aneci::SampledReconstructionLoss(p, pairs);
    }
    const double recon_pairs = dense_recon ? static_cast<double>(n) * n
                                           : static_cast<double>(pairs.size());
    VarPtr loss = ag::Add(ag::Scale(q, -cfg.beta1 * two_m_scale),
                          ag::Scale(recon, cfg.beta2 * n / recon_pairs));
    {
      ScopedSpan s(tracer, "autograd.backward", epoch);
      ag::Backward(loss);
    }
    {
      ScopedSpan s(tracer, "autograd.adam_step", epoch);
      optimizer.Step();
    }
    aneci::AneciEpochStats stats;
    stats.epoch = epoch;
    stats.loss = loss->value()(0, 0);
    stats.modularity = q->value()(0, 0);
    stats.rigidity = aneci::Rigidity(p->value());
    history.push_back(stats);
    if (epoch + 1 == cfg.epochs) {
      last_xw = xw->value();
      last_h1 = h1->value();
      last_z = z->value();
    }
  }

  const double epochs = std::max(1, cfg.epochs);
  const uint64_t pf_calls = CounterValue("threadpool/parallel_for/calls",
                                         aneci::MetricClass::kDeterministic) -
                            pf0;
  const uint64_t serial = CounterValue("threadpool/serial_fallbacks",
                                       aneci::MetricClass::kScheduling) -
                          serial0;
  result->Add("linalg.kernels.matmul_flops",
              (CounterValue("linalg/matmul/flops",
                            aneci::MetricClass::kDeterministic) -
               matmul0) / epochs,
              "flop");
  result->Add("linalg.kernels.spmm_flops",
              (CounterValue("linalg/spmm/flops",
                            aneci::MetricClass::kDeterministic) -
               spmm0) / epochs,
              "flop");
  result->Add("util.thread_pool.parallel_for_calls.epoch", pf_calls / epochs,
              "count");
  result->Add("util.thread_pool.serial_fallback_frac.epoch",
              pf_calls ? static_cast<double>(serial) / pf_calls : 0.0, "frac");
  result->Add("autograd.peak_bytes",
              registry.GetGauge("autograd/peak_bytes",
                                aneci::MetricClass::kDeterministic)
                  ->Value(),
              "bytes");

  // Kernel calls at the exact shapes an epoch issues, registry off so the
  // probes do not count as training work.
  registry.set_enabled(false);
  const aneci::kernels::Backend& k = aneci::kernels::Active();
  const int hidden = cfg.hidden_dim, embed = cfg.embed_dim;
  const int d = x_sparse.cols();
  Matrix y_h(n, hidden), y_d(d, hidden), y_e(n, embed), y_w(hidden, embed);
  const Matrix& w1v = w1->value();
  TimeKernel(result, "spmm_xw1", 2.0 * x_sparse.nnz() * hidden,
             CsrBytes(x_sparse) + DenseBytes(d, hidden) + DenseBytes(n, hidden),
             [&] { k.Spmm(x_sparse, w1v, &y_h); });
  TimeKernel(result, "spmm_prop", 2.0 * s_norm.nnz() * hidden,
             CsrBytes(s_norm) + 2 * DenseBytes(n, hidden),
             [&] { k.Spmm(s_norm, last_xw, &y_h); });
  TimeKernel(result, "gemm_h1w2", 2.0 * n * hidden * embed,
             DenseBytes(n, hidden) + DenseBytes(hidden, embed) +
                 DenseBytes(n, embed),
             [&] { k.Gemm(false, false, 1.0, last_h1, w2->value(), 0.0, &y_e); });
  TimeKernel(result, "spmmt_xgrad", 2.0 * x_sparse.nnz() * hidden,
             CsrBytes(x_sparse) + DenseBytes(n, hidden) + DenseBytes(d, hidden),
             [&] { k.SpmmT(x_sparse, last_xw, &y_d); });
  TimeKernel(result, "gemm_ta_w2grad", 2.0 * n * hidden * embed,
             DenseBytes(n, hidden) + DenseBytes(n, embed) +
                 DenseBytes(hidden, embed),
             [&] { k.Gemm(true, false, 1.0, last_h1, last_z, 0.0, &y_w); });
  return history;
}

bool SameHistory(const std::vector<aneci::AneciEpochStats>& a,
                 const std::vector<aneci::AneciEpochStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].epoch != b[i].epoch || a[i].loss != b[i].loss ||
        a[i].modularity != b[i].modularity || a[i].rigidity != b[i].rigidity)
      return false;
  return true;
}

aneci::AneciConfig TrainConfig(const Options& options, int epochs) {
  aneci::AneciConfig config;
  config.seed = options.seed;
  config.epochs = epochs;
  return config;
}

}  // namespace

Result RunTrain(const Options& options) {
  Result result;
  aneci::MetricsRegistry::Global().set_enabled(false);
  aneci::Dataset dataset;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&](int) {
    dataset = aneci::MakePubmed(options.seed, options.scale);
  });
  const aneci::Graph& graph = dataset.graph;
  result.Note("graph: N=" + std::to_string(graph.num_nodes()) +
              " M=" + std::to_string(graph.num_edges()) +
              " d=" + std::to_string(graph.attribute_dim()));

  std::vector<double> epoch_ms;
  double train_s = 0.0;
  int calls = 0;
  WallTimer run;
  for (double last_s = 0.0;
       calls < kMinCalls || run.Seconds() + last_s <= options.seconds;
       ++calls) {
    const TrainRun r = TimedTrain(TrainConfig(options, kEpochsPerCall), graph);
    result.CountOps(r.result.history.size(), 0);
    result.Check(static_cast<int>(r.result.history.size()) == kEpochsPerCall,
                 "Train ran every epoch");
    const double nmi = Nmi(r.result.p, graph);
    char line[160];
    std::snprintf(line, sizeof(line), "nmi=%.6f (floor %.3f)", nmi,
                  options.nmi_floor);
    result.Check(nmi >= options.nmi_floor, line);
    epoch_ms.insert(epoch_ms.end(), r.epoch_ms.begin(), r.epoch_ms.end());
    train_s += r.train_s;
    last_s = r.train_s;
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "epochs per wall second of %d whole Train calls "
                "(train_s = %.6f s in all)", calls, train_s);
  AddEndToEnd(&result, setup_s, Percentile(epoch_ms, 50.0),
              Percentile(epoch_ms, 90.0),
              "epoch (gap between EpochCallback invocations)",
              RatePerWallSecond(static_cast<double>(calls) * kEpochsPerCall,
                                train_s),
              line);
  return result;
}

void TraceTrain(const Options& options, Tracer* tracer, Result* result) {
  aneci::MetricsRegistry& registry = aneci::MetricsRegistry::Global();
  registry.set_enabled(false);
  const aneci::Dataset dataset = aneci::MakePubmed(options.seed, options.scale);
  const aneci::AneciConfig config = TrainConfig(options, kTraceEpochs);
  // An untraced Train is the overhead baseline and the loss reference.
  const TrainRun baseline = TimedTrain(config, dataset.graph);
  result->CountOps(baseline.result.history.size(), 0);
  registry.ResetValues();
  registry.set_enabled(true);
  const std::vector<aneci::AneciEpochStats> replica =
      TracedReplica(config, dataset.graph, tracer, result);
  registry.set_enabled(false);
  result->CountOps(replica.size(), 0);
  result->Check(SameHistory(baseline.result.history, replica),
                "traced replica's per-epoch losses equal AneciResult::history");

  std::vector<double> epochs = tracer->Durations("epoch");
  if (epochs.size() > 1) epochs.erase(epochs.begin());
  AddTraceQuality(result, "train",
                  Median(epochs) / Median(baseline.epoch_ms) - 1.0,
                  tracer->Coverage("epoch"), "epoch");
  result->Add("core.trainer_glue_ms", Median(tracer->SelfTimes("epoch")), "ms");
  for (const char* span :
       {"autograd.encoder_fwd", "autograd.softmax_fwd",
        "core.losses.modularity_fwd", "core.losses.recon_fwd",
        "core.losses.sample_pairs", "autograd.backward", "autograd.adam_step",
        "graph.proximity", "graph.normalized_adjacency"})
    result->Add(std::string(span) + "_ms", tracer->MedianMs(span), "ms");
}

}  // namespace perfbench
