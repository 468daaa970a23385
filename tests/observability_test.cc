// Tests for the observability layer (util/metrics.h, util/trace.h) and the
// instrumented Embedder entry point: sharded counters under real
// ParallelFor concurrency (run under TSan in CI), histogram bucket edges,
// the determinism contract across thread counts, ring eviction, span
// nesting, the golden stats report, and observer forwarding through
// Embedder::Embed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "data/sbm.h"
#include "embed/embedder.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace aneci {
namespace {

TEST(CounterTest, ShardedAddsSurviveConcurrency) {
  Counter* c = MetricsRegistry::Global().GetCounter("test/concurrent_adds");
  c->Reset();
  ScopedNumThreads guard(4);
  ParallelFor(0, 100000, 64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) c->Increment();
  });
  EXPECT_EQ(c->Value(), 100000u);
}

TEST(CounterTest, ValueIsInvariantToThreadCount) {
  Counter* c = MetricsRegistry::Global().GetCounter("test/thread_invariance");
  for (int threads : {1, 4, 7}) {
    c->Reset();
    ScopedNumThreads guard(threads);
    ParallelFor(0, 9973, 8, [&](int64_t begin, int64_t end) {
      c->Add(static_cast<uint64_t>(end - begin));
    });
    EXPECT_EQ(c->Value(), 9973u) << threads << " threads";
  }
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test/bucket_edges", {1.0, 10.0});
  h->Reset();
  // value <= bound lands in that bucket; above the last bound overflows.
  h->Observe(0.5);
  h->Observe(1.0);   // exactly on the first edge -> first bucket
  h->Observe(5.0);
  h->Observe(10.0);  // exactly on the last edge -> second bucket
  h->Observe(100.0);
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_EQ(h->BucketCounts(), (std::vector<uint64_t>{2, 2, 1}));
  EXPECT_DOUBLE_EQ(h->Min(), 0.5);
  EXPECT_DOUBLE_EQ(h->Max(), 100.0);
  EXPECT_DOUBLE_EQ(h->Sum(), 116.5);
}

TEST(HistogramTest, ConcurrentObservationsLoseNothing) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test/concurrent_observe", {100.0});
  h->Reset();
  ScopedNumThreads guard(4);
  ParallelFor(0, 10000, 16, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i)
      h->Observe(static_cast<double>(i % 7));
  });
  EXPECT_EQ(h->Count(), 10000u);
  EXPECT_EQ(h->BucketCounts()[0], 10000u);
}

TEST(HistogramQuantileTest, ExactAtExtremesInterpolatedBetween) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test/quantile_basic", {1.0, 10.0, 100.0});
  h->Reset();
  EXPECT_DOUBLE_EQ(HistogramQuantile(*h, 0.5), 0.0);  // empty -> 0
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(HistogramQuantile(*h, 0.0), 1.0);    // exact Min
  EXPECT_DOUBLE_EQ(HistogramQuantile(*h, 1.0), 100.0);  // exact Max
  // p50: rank 50 of 100 lands in the (10, 100] bucket (counts 1, 9, 90);
  // linear interpolation inside it gives 10 + (40/90) * 90 = 50.
  EXPECT_NEAR(HistogramQuantile(*h, 0.5), 50.0, 1.0);
  // Quantiles are monotone in q.
  EXPECT_LE(HistogramQuantile(*h, 0.5), HistogramQuantile(*h, 0.9));
  EXPECT_LE(HistogramQuantile(*h, 0.9), HistogramQuantile(*h, 0.99));
}

TEST(HistogramQuantileTest, ClampedToObservedRange) {
  // Regression: every observation below the first bound once produced
  // p50 > Max (interpolating across the whole first bucket). The estimate
  // must stay inside [Min, Max].
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test/quantile_clamp", {0.01, 1.0});
  h->Reset();
  h->Observe(0.003);
  h->Observe(0.004);
  h->Observe(0.005);
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    const double estimate = HistogramQuantile(*h, q);
    EXPECT_GE(estimate, 0.003) << "q=" << q;
    EXPECT_LE(estimate, 0.005) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, OverflowBucketUsesObservedMax) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test/quantile_overflow", {1.0});
  h->Reset();
  h->Observe(5.0);
  h->Observe(7.0);  // both in the overflow bucket
  const double p99 = HistogramQuantile(*h, 0.99);
  EXPECT_GE(p99, 1.0);
  EXPECT_LE(p99, 7.0);
}

TEST(TelemetryRingTest, EvictsOldestAndCountsDrops) {
  TelemetryRing ring(4);
  for (int i = 0; i < 6; ++i) ring.Append("{\"i\":" + std::to_string(i) + "}");
  const std::vector<std::string> lines = ring.Lines();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines.front(), "{\"i\":2}");
  EXPECT_EQ(lines.back(), "{\"i\":5}");
  EXPECT_EQ(ring.dropped(), 2u);
  ring.Reset();
  EXPECT_TRUE(ring.Lines().empty());
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RegistryTest, ReRegistrationReturnsTheSameMetric) {
  Counter* a = MetricsRegistry::Global().GetCounter("test/reregister");
  Counter* b = MetricsRegistry::Global().GetCounter(
      "test/reregister", MetricClass::kScheduling);  // class of first reg wins
  EXPECT_EQ(a, b);
  Gauge* g1 = MetricsRegistry::Global().GetGauge("test/gauge");
  Gauge* g2 = MetricsRegistry::Global().GetGauge("test/gauge");
  EXPECT_EQ(g1, g2);
  TelemetryRing* r1 = MetricsRegistry::Global().GetRing("test/ring", 8);
  TelemetryRing* r2 = MetricsRegistry::Global().GetRing("test/ring", 9999);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1->capacity(), 8u);
}

TEST(RegistryTest, DisabledRegistryRecordsNothing) {
  Counter* c = MetricsRegistry::Global().GetCounter("test/disabled_counter");
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test/disabled_hist", {1.0});
  TelemetryRing* ring = MetricsRegistry::Global().GetRing("test/disabled_ring");
  c->Reset();
  h->Reset();
  ring->Reset();
  MetricsRegistry::Global().set_enabled(false);
  c->Increment();
  h->Observe(0.5);
  ring->Append("{}");
  MetricsRegistry::Global().set_enabled(true);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_TRUE(ring->Lines().empty());
}

TEST(BackwardCostTest, EachClosureIsTimedUnderItsOpName) {
  // One site in ag::Backward times every backward closure into
  // autograd/backward_ms/<op>; a disabled registry records nothing.
  Histogram* matmul = MetricsRegistry::Global().GetHistogram(
      "autograd/backward_ms/MatMul", {1.0}, MetricClass::kScheduling);
  Histogram* relu = MetricsRegistry::Global().GetHistogram(
      "autograd/backward_ms/Relu", {1.0}, MetricClass::kScheduling);
  matmul->Reset();
  relu->Reset();
  Rng rng(5);
  auto sweep = [&] {
    ag::VarPtr w = ag::MakeParameter(Matrix::RandomNormal(6, 3, 1.0, rng));
    ag::VarPtr x = ag::MakeConstant(Matrix::RandomNormal(10, 6, 1.0, rng));
    ag::VarPtr h = ag::MatMul(ag::Relu(ag::MatMul(x, w)),
                              ag::MakeParameter(Matrix(3, 2, 0.5)));
    EXPECT_STREQ(h->op, "MatMul");
    ag::Backward(ag::SumAll(h));
  };
  sweep();
  EXPECT_EQ(matmul->Count(), 2u);
  EXPECT_EQ(relu->Count(), 1u);
  EXPECT_GE(matmul->Sum(), 0.0);
  MetricsRegistry::Global().set_enabled(false);
  sweep();
  MetricsRegistry::Global().set_enabled(true);
  EXPECT_EQ(matmul->Count(), 2u);
  EXPECT_EQ(relu->Count(), 1u);
}

TEST(TraceTest, SpansNestIntoSlashPaths) {
  TraceRegistry::Global().ResetValues();
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
    }
    {
      TraceSpan inner("inner");
    }
  }
  bool saw_outer = false, saw_inner = false;
  for (const SpanStat& s : TraceRegistry::Global().Snapshot()) {
    if (s.path == "outer") {
      saw_outer = true;
      EXPECT_EQ(s.count, 1u);
    }
    if (s.path == "outer/inner") {
      saw_inner = true;
      EXPECT_EQ(s.count, 2u);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

/// Runs the instrumented kernel mix once at the given thread count and
/// returns the deterministic-class snapshot lines.
std::vector<std::string> DetLinesForWorkload(int threads) {
  MetricsRegistry::Global().ResetValues();
  TraceRegistry::Global().ResetValues();
  ScopedNumThreads guard(threads);
  Rng rng(17);
  const Matrix a = Matrix::RandomNormal(48, 32, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(32, 24, 1.0, rng);
  Matrix c = MatMul(a, b);
  std::vector<Triplet> trips;
  for (int i = 0; i < 40; ++i) trips.push_back({i, (i * 7) % 40, 1.0});
  const SparseMatrix s = SparseMatrix::FromTriplets(40, 40, trips);
  Matrix d = s.Multiply(Matrix::RandomNormal(40, 8, 1.0, rng));
  SparseMatrix p = s.MultiplySparse(s);
  (void)c;
  (void)d;
  (void)p;
  std::vector<std::string> det;
  for (const std::string& line :
       MetricsRegistry::Global().SnapshotJsonl()) {
    if (line.find("\"class\":\"det\"") != std::string::npos)
      det.push_back(line);
  }
  return det;
}

TEST(DeterminismTest, DetSnapshotLinesAreByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> at1 = DetLinesForWorkload(1);
  const std::vector<std::string> at4 = DetLinesForWorkload(4);
  const std::vector<std::string> at7 = DetLinesForWorkload(7);
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, at4);
  EXPECT_EQ(at1, at7);
}

TEST(StatsReportTest, GoldenReportWithTimingsZeroed) {
  const std::string jsonl =
      "{\"type\":\"epoch\",\"class\":\"det\",\"epoch\":0,\"loss\":2.5}\n"
      "{\"type\":\"epoch\",\"class\":\"det\",\"epoch\":4,\"loss\":1.25}\n"
      "{\"type\":\"event\",\"class\":\"det\",\"name\":\"early_stop\","
      "\"epoch\":4}\n"
      "{\"type\":\"counter\",\"name\":\"train/epochs\",\"class\":\"det\","
      "\"value\":5}\n"
      "{\"type\":\"counter\",\"name\":\"threadpool/helper_tasks\","
      "\"class\":\"sched\",\"value\":3}\n"
      "{\"type\":\"gauge\",\"name\":\"train/last_loss\",\"class\":\"det\","
      "\"value\":1.25}\n"
      "{\"type\":\"histogram\",\"name\":\"checkpoint/save_ms\","
      "\"class\":\"sched\",\"count\":2,\"sum\":3.5,\"min\":1,\"max\":2.5,"
      "\"bounds\":[1,10],\"buckets\":[1,1,0]}\n"
      "{\"type\":\"span_count\",\"name\":\"train/aneci\",\"class\":\"det\","
      "\"value\":1}\n"
      "{\"type\":\"span_time\",\"name\":\"train/aneci\",\"class\":\"sched\","
      "\"total_ms\":12.5,\"min_ms\":12.5,\"max_ms\":12.5}\n";

  StatusOr<std::string> report = FormatStatsReport(jsonl, /*zero_timings=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto row = [](const std::string& name, const std::string& value,
                const std::string& suffix = "") {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-44s %12s%s\n", name.c_str(),
                  value.c_str(), suffix.c_str());
    return std::string(buf);
  };
  std::string expected =
      "metrics report: 2 counters, 1 gauges, 1 histograms, 1 spans, "
      "2 epoch records\n";
  expected += "\ncounters\n";
  expected += row("train/epochs", "5");
  expected += row("threadpool/helper_tasks", "3", "  [sched]");
  expected += "\ngauges\n";
  expected += row("train/last_loss", "1.25");
  expected += "\nhistograms\n";
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-44s count=%s sum=%s%s\n",
                  "checkpoint/save_ms", "2", "0", "  [sched]");
    expected += buf;
  }
  expected += "\nspans (count, total ms; timings zeroed)\n";
  {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "  %-44s %10s %12.3f\n", "train/aneci",
                  "1", 0.0);
    expected += buf;
  }
  expected +=
      "\ntraining: 2 epoch records (epoch 0 loss 2.5 -> epoch 4 loss 1.25)\n";
  expected += "\nevents: 1\n";
  expected += row("early_stop", "epoch 4");

  EXPECT_EQ(report.value(), expected);
}

TEST(StatsReportTest, RejectsNonJsonlInput) {
  EXPECT_FALSE(FormatStatsReport("not json\n", false).ok());
  EXPECT_FALSE(FormatStatsReport("{\"no_type\":1}\n", false).ok());
}

// --- instrumented Embedder entry point ---------------------------------------

class CountingObserver : public TrainObserver {
 public:
  void OnEpoch(int epoch, double loss) override {
    ++epochs;
    last_epoch = epoch;
    last_loss = loss;
  }
  int epochs = 0;
  int last_epoch = -1;
  double last_loss = 0.0;
};

Graph TinyGraph() {
  SbmOptions opt;
  opt.num_nodes = 60;
  opt.num_classes = 2;
  opt.num_edges = 180;
  opt.intra_fraction = 0.9;
  opt.attribute_dim = 16;
  opt.words_per_node = 4;
  Rng rng(23);
  return GenerateSbm(opt, rng);
}

TEST(EmbedderInstrumentation, EmbedCountsCallsEpochsAndSpans) {
  Counter* calls = MetricsRegistry::Global().GetCounter("embed/calls");
  Counter* epochs = MetricsRegistry::Global().GetCounter("embed/epochs");
  const uint64_t calls_before = calls->Value();
  const uint64_t epochs_before = epochs->Value();
  TraceRegistry::Global().ResetValues();

  auto embedder = CreateEmbedder("GAE");
  ASSERT_TRUE(embedder.ok());
  Rng rng(5);
  CountingObserver observer;
  EmbedOptions eo;
  eo.rng = &rng;
  eo.epochs = 7;
  eo.observer = &observer;
  Matrix z = embedder.value()->Embed(TinyGraph(), eo);
  EXPECT_GT(z.cols(), 0);

  // The caller's observer saw every epoch, and the registry agrees.
  EXPECT_EQ(observer.epochs, 7);
  EXPECT_EQ(observer.last_epoch, 6);
  EXPECT_TRUE(std::isfinite(observer.last_loss));
  EXPECT_EQ(calls->Value(), calls_before + 1);
  EXPECT_EQ(epochs->Value(), epochs_before + 7);

  bool saw_span = false;
  for (const SpanStat& s : TraceRegistry::Global().Snapshot())
    if (s.path == "embed/GAE") saw_span = true;
  EXPECT_TRUE(saw_span);
}

TEST(EmbedderInstrumentation, EpochsOverrideReachesEveryGradientMethod) {
  // Every gradient-trained baseline must respect eo.epochs (a method whose
  // loop still reads its own config would call the observer a different
  // number of times — the regression this guards against). Sampling methods
  // (DeepWalk, LINE, ONE) rescale the budget and closed-form methods ignore
  // it, so only the per-epoch trainers are listed here.
  const Graph g = TinyGraph();
  for (const std::string name :
       {"GAE", "VGAE", "DGI", "DANE", "DONE", "ADONE", "AGE", "GraphSage",
        "Dominant", "AnomalyDAE", "SDNE", "GATE"}) {
    auto embedder = CreateEmbedder(name);
    ASSERT_TRUE(embedder.ok()) << name;
    Rng rng(11);
    CountingObserver observer;
    EmbedOptions eo;
    eo.rng = &rng;
    eo.epochs = 3;
    eo.observer = &observer;
    (void)embedder.value()->Embed(g, eo);
    EXPECT_EQ(observer.epochs, 3) << name;
  }
}

}  // namespace
}  // namespace aneci
