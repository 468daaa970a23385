// Regression tests for the autograd memory planner
// (src/autograd/memory_planner.h):
//
//   * planner unit behaviour — fresh/reused byte accounting, planner
//     scoping/nesting;
//   * the end-to-end guarantee — training a small GCN with buffer recycling
//     on vs off yields BYTE-identical final parameters, while the
//     `autograd/peak_bytes` and `autograd/fresh_bytes` gauges are strictly
//     lower with recycling on;
//   * the epoch arena — exact-shape reuse, idle eviction, scoping, nodes
//     returning their buffers on destruction, and training under an arena
//     byte-identical to training without one.
#include "autograd/memory_planner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace aneci::ag {
namespace {

TEST(MemoryPlanner, ScopingAndAccounting) {
  EXPECT_EQ(MemoryPlanner::Current(), nullptr);
  {
    MemoryPlanner outer(/*recycle=*/true);
    EXPECT_EQ(MemoryPlanner::Current(), &outer);
    Matrix m = outer.AcquireUninit(4, 8);
    const double* storage = m.data();
    EXPECT_EQ(outer.fresh_bytes(), 4u * 8u * sizeof(double));
    outer.Release(std::move(m));
    Matrix r = outer.AcquireUninit(4, 8);
    EXPECT_EQ(r.data(), storage);  // The released allocation comes back.
    EXPECT_EQ(outer.reused_bytes(), 4u * 8u * sizeof(double));
    EXPECT_EQ(outer.fresh_bytes(), 4u * 8u * sizeof(double));
    {
      MemoryPlanner inner(/*recycle=*/false);
      EXPECT_EQ(MemoryPlanner::Current(), &inner);
      // Recycle off: every acquisition is fresh, releases drop the buffer.
      Matrix a = inner.AcquireUninit(2, 2);
      inner.Release(std::move(a));
      Matrix b = inner.AcquireUninit(2, 2);
      EXPECT_EQ(inner.fresh_bytes(), 2u * 2u * 2u * sizeof(double));
      EXPECT_EQ(inner.reused_bytes(), 0u);
    }
    EXPECT_EQ(MemoryPlanner::Current(), &outer);
  }
  EXPECT_EQ(MemoryPlanner::Current(), nullptr);
}

TEST(MemoryPlanner, AcquireZeroedMatchesFreshMatrix) {
  MemoryPlanner planner(/*recycle=*/true);
  // Dirty a buffer, release it, and re-acquire zeroed: contents must be
  // bit-identical to a fresh Matrix.
  Matrix dirty = planner.AcquireUninit(3, 5);
  dirty.Fill(7.5);
  planner.Release(std::move(dirty));
  Matrix z = planner.AcquireZeroed(3, 5);
  const Matrix fresh(3, 5);
  EXPECT_EQ(std::memcmp(z.data(), fresh.data(), sizeof(double) * z.size()),
            0);
}

TEST(MemoryPlanner, HelpersDegradeGracefullyWithoutPlanner) {
  ASSERT_EQ(MemoryPlanner::Current(), nullptr);
  Matrix z = AcquireGradZeroed(2, 3);
  EXPECT_EQ(z.rows(), 2);
  for (int64_t i = 0; i < z.size(); ++i) EXPECT_EQ(z.data()[i], 0.0);
  Matrix src(2, 3);
  src.Fill(1.25);
  Matrix copy = AcquireGradCopy(src);
  EXPECT_EQ(
      std::memcmp(copy.data(), src.data(), sizeof(double) * src.size()), 0);
  ReleaseGrad(std::move(copy));  // No planner: plain destruction, no crash.
  EXPECT_TRUE(copy.empty());
}

TEST(EpochArena, ReusesByExactShapeOnly) {
  EpochArena arena;
  Matrix a = arena.AcquireUninit(3, 4);
  const double* ptr = a.data();
  EXPECT_EQ(arena.fresh_bytes(), 12u * sizeof(double));
  EXPECT_EQ(arena.in_use_bytes(), 12u * sizeof(double));
  arena.Release(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(arena.in_use_bytes(), 0u);
  EXPECT_EQ(arena.resident_bytes(), 12u * sizeof(double));
  // Same element count, other shape: a miss.
  Matrix b = arena.AcquireUninit(4, 3);
  EXPECT_NE(b.data(), ptr);
  EXPECT_EQ(arena.fresh_bytes(), 24u * sizeof(double));
  // The released shape comes back, same allocation.
  Matrix c = arena.AcquireUninit(3, 4);
  EXPECT_EQ(c.data(), ptr);
  EXPECT_EQ(arena.reused_bytes(), 12u * sizeof(double));
  EXPECT_EQ(arena.in_use_bytes(), 24u * sizeof(double));
}

TEST(EpochArena, EvictIdleFreesWhatThePeriodDidNotDraw) {
  EpochArena arena;
  Matrix used = arena.AcquireUninit(5, 2);
  Matrix idle = arena.AcquireUninit(7, 2);
  arena.Release(std::move(used));
  arena.Release(std::move(idle));
  arena.EvictIdle();  // Both were released this period: kept.
  EXPECT_EQ(arena.resident_bytes(), 24u * sizeof(double));
  // Next period draws only the 5 x 2 buffer.
  Matrix again = arena.AcquireUninit(5, 2);
  arena.Release(std::move(again));
  arena.EvictIdle();  // The 7 x 2 buffer sat idle for a whole period.
  EXPECT_EQ(arena.resident_bytes(), 10u * sizeof(double));
  EXPECT_EQ(arena.fresh_bytes(), 24u * sizeof(double));
}

TEST(EpochArena, ScopeInstallsThreadLocallyAndNests) {
  EXPECT_EQ(EpochArena::Current(), nullptr);
  auto outer = std::make_shared<EpochArena>();
  auto inner = std::make_shared<EpochArena>();
  {
    EpochArena::Scope a(outer);
    EXPECT_EQ(EpochArena::Current(), outer);
    {
      EpochArena::Scope b(inner);
      EXPECT_EQ(EpochArena::Current(), inner);
    }
    EXPECT_EQ(EpochArena::Current(), outer);
  }
  EXPECT_EQ(EpochArena::Current(), nullptr);
  // Without an arena, values are fresh zero matrices, as before.
  Matrix v = AcquireValue(2, 3);
  for (int64_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.data()[i], 0.0);
}

TEST(EpochArena, NodesReturnTheirBuffersWhenTheTapeIsDropped) {
  auto arena = std::make_shared<EpochArena>();
  EpochArena::Scope scope(arena);
  VarPtr w = MakeParameter(Matrix(4, 3, 0.5));
  const Matrix x(6, 4, 1.0);
  const double* first = nullptr;
  for (int epoch = 0; epoch < 3; ++epoch) {
    arena->EvictIdle();
    VarPtr h = Relu(MatMul(MakeConstant(x), w));
    if (epoch == 0) first = h->value().data();
    // The same tape draws the same buffer every epoch.
    EXPECT_EQ(h->value().data(), first) << "epoch " << epoch;
    Backward(SumAll(h));
    w->ZeroGrad();
  }
  // Steady state: only the first epoch allocated forward buffers.
  const uint64_t after_three = arena->fresh_bytes();
  {
    VarPtr h = Relu(MatMul(MakeConstant(x), w));
    Backward(SumAll(h));
  }
  EXPECT_EQ(arena->fresh_bytes(), after_three);
  EXPECT_GT(arena->reused_bytes(), 0u);
  EXPECT_EQ(arena->in_use_bytes(), 4u * 3u * sizeof(double))
      << "only the parameter's gradient stays drawn";
}

// --- end-to-end: GCN training, planner on vs off -----------------------------

struct TrainResult {
  Matrix w1, w2;
  double peak_bytes;
  double fresh_bytes;
};

// A 2-layer GCN on a tiny ring graph, trained for a few steps. All
// randomness is seeded, so two runs differ only in BackwardOptions.
TrainResult TrainSmallGcn(bool recycle, bool epoch_arena = false) {
  const int n = 24, in_dim = 12, hidden = 16, classes = 3;
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i) {
    trips.push_back({i, (i + 1) % n, 1.0});
    trips.push_back({(i + 1) % n, i, 1.0});
    trips.push_back({i, i, 1.0});
  }
  const SparseMatrix a_norm =
      SparseMatrix::FromTriplets(n, n, trips).RowNormalizedL1();

  Rng rng(123);
  const Matrix x = Matrix::RandomNormal(n, in_dim, 1.0, rng);
  VarPtr w1 = MakeParameter(Matrix::GlorotUniform(in_dim, hidden, rng));
  VarPtr w2 = MakeParameter(Matrix::GlorotUniform(hidden, classes, rng));
  std::vector<int> rows, labels;
  for (int i = 0; i < n; i += 2) {
    rows.push_back(i);
    labels.push_back(i % classes);
  }

  Adam::Options adam;
  adam.lr = 0.05;
  Adam opt({w1, w2}, adam);
  VarPtr xc = MakeConstant(x);
  BackwardOptions opts;
  opts.recycle_buffers = recycle;
  const auto arena = std::make_shared<EpochArena>();
  std::optional<EpochArena::Scope> scope;
  if (epoch_arena) scope.emplace(arena);
  for (int step = 0; step < 5; ++step) {
    arena->EvictIdle();
    VarPtr h = Relu(SpMM(&a_norm, MatMul(xc, w1)));
    VarPtr logits = SpMM(&a_norm, MatMul(h, w2));
    VarPtr loss = SoftmaxCrossEntropy(logits, rows, labels);
    opt.ZeroGrad();
    Backward(loss, opts);
    opt.Step();
  }

  Gauge* peak = MetricsRegistry::Global().GetGauge(
      "autograd/peak_bytes", MetricClass::kDeterministic);
  Gauge* fresh = MetricsRegistry::Global().GetGauge(
      "autograd/fresh_bytes", MetricClass::kDeterministic);
  return {w1->value(), w2->value(), peak->Value(), fresh->Value()};
}

TEST(MemoryPlannerRegression, PlannerOnIsByteIdenticalAndStrictlySmaller) {
  const TrainResult off = TrainSmallGcn(/*recycle=*/false);
  const TrainResult on = TrainSmallGcn(/*recycle=*/true);

  ASSERT_EQ(on.w1.rows(), off.w1.rows());
  ASSERT_EQ(on.w2.rows(), off.w2.rows());
  EXPECT_EQ(std::memcmp(on.w1.data(), off.w1.data(),
                        sizeof(double) * on.w1.size()),
            0)
      << "W1 diverged: recycling changed numerics";
  EXPECT_EQ(std::memcmp(on.w2.data(), off.w2.data(),
                        sizeof(double) * on.w2.size()),
            0)
      << "W2 diverged: recycling changed numerics";

  // The gauges hold the last sweep's in-use high-water mark and fresh
  // bytes. With recycling off every acquisition allocates, and only the
  // addends folded into an existing gradient are freed before the sweep
  // ends. With recycling on, dead buffers are released (a lower in-use
  // peak) and drawn again by later acquisitions (fewer fresh bytes).
  EXPECT_GT(off.peak_bytes, 0.0);
  EXPECT_GE(off.fresh_bytes, off.peak_bytes);
  EXPECT_LT(on.peak_bytes, off.peak_bytes)
      << "planner on did not reduce the gradient footprint";
  EXPECT_LT(on.fresh_bytes, off.fresh_bytes)
      << "planner on reused no gradient buffer";
}

TEST(MemoryPlannerRegression, EpochArenaIsByteIdenticalWithTheSamePeak) {
  const TrainResult off = TrainSmallGcn(/*recycle=*/true);
  const TrainResult on = TrainSmallGcn(/*recycle=*/true, /*epoch_arena=*/true);
  EXPECT_EQ(std::memcmp(on.w1.data(), off.w1.data(),
                        sizeof(double) * on.w1.size()),
            0)
      << "W1 diverged: the epoch arena changed numerics";
  EXPECT_EQ(std::memcmp(on.w2.data(), off.w2.data(),
                        sizeof(double) * on.w2.size()),
            0)
      << "W2 diverged: the epoch arena changed numerics";
  // The in-use high-water mark does not depend on which pool served the
  // buffers; the arena, kept from earlier epochs, served all of them.
  EXPECT_EQ(on.peak_bytes, off.peak_bytes);
  EXPECT_GT(off.fresh_bytes, 0.0);
  EXPECT_EQ(on.fresh_bytes, 0.0);
}

}  // namespace
}  // namespace aneci::ag
