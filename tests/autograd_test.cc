// Gradient-checks every differentiable op against central finite
// differences, then sanity-checks the optimisers.
#include <gtest/gtest.h>

#include <cstring>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "linalg/sparse.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aneci::ag {
namespace {

VarPtr Param(int r, int c, uint64_t seed) {
  Rng rng(seed);
  return MakeParameter(Matrix::RandomNormal(r, c, 0.7, rng));
}

void ExpectGradOk(const VarPtr& p, const std::function<VarPtr()>& build,
                  double tol = 1e-4) {
  GradCheckResult res = CheckGradient(p, build, 1e-5, tol);
  EXPECT_TRUE(res.ok) << "max rel error " << res.max_rel_error
                      << " abs " << res.max_abs_error;
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  auto p = Param(2, 2, 1);
  EXPECT_DEATH(Backward(p), "scalar");
}

TEST(Autograd, MatMulGradients) {
  auto a = Param(3, 4, 2);
  auto b = Param(4, 2, 3);
  ExpectGradOk(a, [&] { return SumAll(MatMul(a, b)); });
  ExpectGradOk(b, [&] { return SumAll(MatMul(a, b)); });
}

TEST(Autograd, MatMulTransBGradients) {
  auto a = Param(3, 4, 4);
  auto b = Param(5, 4, 5);
  ExpectGradOk(a, [&] { return SumSquares(MatMulTransB(a, b)); });
  ExpectGradOk(b, [&] { return SumSquares(MatMulTransB(a, b)); });
}

TEST(Autograd, SpMMGradient) {
  Rng rng(6);
  std::vector<Triplet> trips;
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 5; ++c)
      if (rng.NextBool(0.4)) trips.push_back({r, c, rng.Uniform(-1, 1)});
  SparseMatrix s = SparseMatrix::FromTriplets(5, 5, trips);
  auto x = Param(5, 3, 7);
  ExpectGradOk(x, [&] { return SumSquares(SpMM(&s, x)); });
}

TEST(Autograd, AddSubGradients) {
  auto a = Param(3, 3, 8);
  auto b = Param(3, 3, 9);
  ExpectGradOk(a, [&] { return SumSquares(Add(a, b)); });
  ExpectGradOk(b, [&] { return SumSquares(Sub(a, b)); });
}

TEST(Autograd, HadamardScaleGradients) {
  auto a = Param(2, 5, 10);
  auto b = Param(2, 5, 11);
  ExpectGradOk(a, [&] { return SumAll(Hadamard(a, b)); });
  ExpectGradOk(a, [&] { return SumSquares(Scale(a, -2.5)); });
}

TEST(Autograd, AddRowBroadcastGradients) {
  auto x = Param(4, 3, 12);
  auto bias = Param(1, 3, 13);
  ExpectGradOk(x, [&] { return SumSquares(AddRowBroadcast(x, bias)); });
  ExpectGradOk(bias, [&] { return SumSquares(AddRowBroadcast(x, bias)); });
}

TEST(Autograd, ActivationGradients) {
  // Shift away from the ReLU kink so finite differences are clean.
  Rng rng(14);
  Matrix v = Matrix::RandomNormal(3, 4, 1.0, rng);
  for (int64_t i = 0; i < v.size(); ++i) {
    double& e = v.data()[i];
    if (std::abs(e) < 0.05) e += 0.2;
  }
  auto x = MakeParameter(v);
  ExpectGradOk(x, [&] { return SumSquares(Relu(x)); });
  ExpectGradOk(x, [&] { return SumSquares(LeakyRelu(x, 0.01)); });
  ExpectGradOk(x, [&] { return SumSquares(Sigmoid(x)); });
  ExpectGradOk(x, [&] { return SumSquares(Tanh(x)); });
  ExpectGradOk(x, [&] { return SumAll(Exp(x)); });
}

TEST(Autograd, TransposeGradient) {
  auto x = Param(3, 5, 15);
  ExpectGradOk(x, [&] { return SumSquares(Transpose(x)); });
}

TEST(Autograd, RowSoftmaxGradient) {
  auto x = Param(4, 5, 16);
  Rng rng(17);
  auto w = MakeConstant(Matrix::RandomNormal(4, 5, 1.0, rng));
  ExpectGradOk(x, [&] { return SumAll(Hadamard(RowSoftmax(x), w)); });
}

TEST(Autograd, MeanRowsMeanAllGradients) {
  auto x = Param(6, 3, 18);
  ExpectGradOk(x, [&] { return SumSquares(MeanRows(x)); });
  ExpectGradOk(x, [&] { return MeanAll(x); });
}

TEST(Autograd, BceGradients) {
  Rng rng(19);
  Matrix targets(3, 3);
  for (int64_t i = 0; i < targets.size(); ++i)
    targets.data()[i] = rng.NextDouble();
  auto x = Param(3, 3, 20);
  ExpectGradOk(x, [&] {
    return BinaryCrossEntropySum(Sigmoid(x), targets);
  });
  ExpectGradOk(x, [&] {
    return WeightedBinaryCrossEntropySum(Sigmoid(x), targets, 3.0);
  });
}

TEST(Autograd, SoftmaxCrossEntropyGradient) {
  auto logits = Param(6, 4, 21);
  std::vector<int> rows = {0, 2, 5};
  std::vector<int> labels = {1, 3, 0};
  ExpectGradOk(logits, [&] {
    return SoftmaxCrossEntropy(logits, rows, labels);
  });
}

TEST(Autograd, SoftmaxCrossEntropyValueMatchesManual) {
  Matrix logits = Matrix::FromRows({{0.0, 0.0}});
  auto v = MakeParameter(logits);
  auto loss = SoftmaxCrossEntropy(v, {0}, {0});
  EXPECT_NEAR(loss->value()(0, 0), std::log(2.0), 1e-12);
}

TEST(Autograd, TraceQuadraticSparseGradient) {
  Rng rng(22);
  std::vector<Triplet> trips;
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      if (rng.NextBool(0.4)) trips.push_back({r, c, rng.Uniform(0, 1)});
  SparseMatrix s = SparseMatrix::FromTriplets(6, 6, trips);
  auto p = Param(6, 3, 23);
  ExpectGradOk(p, [&] { return TraceQuadraticSparse(&s, p); });
}

TEST(Autograd, TraceQuadraticSparseValue) {
  // sum(P (.) SP) must equal tr(P^T S P).
  Rng rng(24);
  SparseMatrix s = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 0, 1.0}, {2, 2, 2.0}});
  Matrix pm = Matrix::RandomNormal(3, 2, 1.0, rng);
  auto p = MakeParameter(pm);
  Matrix sp = s.Multiply(pm);
  double expected = 0.0;
  for (int64_t i = 0; i < sp.size(); ++i)
    expected += sp.data()[i] * pm.data()[i];
  EXPECT_NEAR(TraceQuadraticSparse(&s, p)->value()(0, 0), expected, 1e-12);
}

TEST(Autograd, RowWeightedColSumSquaresGradient) {
  std::vector<double> k = {0.5, 1.5, 2.0, 1.0};
  auto p = Param(4, 3, 25);
  ExpectGradOk(p, [&] { return RowWeightedColSumSquares(p, k); });
}

TEST(Autograd, SelectRowsGradient) {
  auto x = Param(6, 3, 26);
  std::vector<int> rows = {1, 1, 4};  // Duplicates must accumulate.
  ExpectGradOk(x, [&] { return SumSquares(SelectRows(x, rows)); });
}

TEST(Autograd, InnerProductPairBceGradient) {
  auto p = Param(5, 3, 27);
  std::vector<PairTarget> pairs = {
      {0, 1, 1.0}, {2, 3, 0.0}, {1, 4, 0.7}, {0, 0, 1.0}};
  ExpectGradOk(p, [&] { return InnerProductPairBce(p, pairs); });
}

TEST(Autograd, InnerProductPairBceMatchesDenseFormula) {
  Rng rng(28);
  Matrix pm = Matrix::RandomNormal(4, 2, 0.8, rng);
  auto p = MakeParameter(pm);
  std::vector<PairTarget> pairs = {{0, 1, 1.0}, {2, 3, 0.25}};
  double expected = 0.0;
  for (const auto& pt : pairs) {
    double d = 0.0;
    for (int c = 0; c < 2; ++c) d += pm(pt.u, c) * pm(pt.v, c);
    const double s = 1.0 / (1.0 + std::exp(-d));
    expected -= pt.target * std::log(s) + (1 - pt.target) * std::log(1 - s);
  }
  EXPECT_NEAR(InnerProductPairBce(p, pairs)->value()(0, 0), expected, 1e-9);
}

TEST(Autograd, GraphAttentionGradients) {
  // Small graph with self-loops; check all three inputs' gradients.
  std::vector<Triplet> trips;
  const int n = 5;
  for (int i = 0; i < n; ++i) trips.push_back({i, i, 1.0});
  trips.push_back({0, 1, 1.0});
  trips.push_back({1, 0, 1.0});
  trips.push_back({1, 2, 1.0});
  trips.push_back({2, 1, 1.0});
  trips.push_back({3, 4, 1.0});
  trips.push_back({4, 3, 1.0});
  SparseMatrix adj = SparseMatrix::FromTriplets(n, n, trips);

  auto h = Param(n, 3, 40);
  auto a_src = Param(1, 3, 41);
  auto a_dst = Param(1, 3, 42);
  auto build = [&] {
    return SumSquares(GraphAttention(&adj, h, a_src, a_dst, 0.2));
  };
  ExpectGradOk(h, build, 5e-4);
  ExpectGradOk(a_src, build, 5e-4);
  ExpectGradOk(a_dst, build, 5e-4);
}

TEST(Autograd, GraphAttentionRowsAreConvexCombinations) {
  // With alpha a softmax, each output row lies in the convex hull of its
  // neighbours' rows; with identical neighbour rows, output equals them.
  std::vector<Triplet> trips = {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}};
  SparseMatrix adj = SparseMatrix::FromTriplets(2, 2, trips);
  Matrix hm(2, 2);
  hm(0, 0) = hm(1, 0) = 3.0;
  hm(0, 1) = hm(1, 1) = -1.0;
  auto h = MakeParameter(hm);
  auto a_src = MakeParameter(Matrix(1, 2, 0.3));
  auto a_dst = MakeParameter(Matrix(1, 2, -0.2));
  auto out = GraphAttention(&adj, h, a_src, a_dst);
  EXPECT_NEAR(out->value()(0, 0), 3.0, 1e-9);
  EXPECT_NEAR(out->value()(0, 1), -1.0, 1e-9);
}

TEST(Autograd, GcnForwardGradCheckUnderThreading) {
  // A two-layer GCN forward (SpMM -> ReLU -> SpMM -> MatMul) gradient-checked
  // with the thread pool active: the parallel MatMul/SpMM kernels run in both
  // the forward and backward passes, so a nondeterministic reduction anywhere
  // would break the finite-difference comparison.
  ScopedNumThreads guard(4);
  Rng rng(50);
  const int n = 8;
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i) trips.push_back({i, i, 1.0});
  for (int i = 0; i + 1 < n; ++i) {
    trips.push_back({i, i + 1, 1.0});
    trips.push_back({i + 1, i, 1.0});
  }
  SparseMatrix adj =
      SparseMatrix::FromTriplets(n, n, trips).SymmetricallyNormalized();

  auto x = MakeConstant(Matrix::RandomNormal(n, 5, 0.8, rng));
  auto w1 = Param(5, 4, 51);
  auto w2 = Param(4, 3, 52);
  auto build = [&] {
    auto h = Relu(SpMM(&adj, MatMul(x, w1)));
    return SumSquares(SpMM(&adj, MatMul(h, w2)));
  };
  ExpectGradOk(w1, build, 5e-4);
  ExpectGradOk(w2, build, 5e-4);
}

TEST(Autograd, GradientsBitIdenticalAcrossThreadCounts) {
  // The same backward pass at 1 vs 7 threads must produce bitwise-equal
  // gradients (deterministic parallel kernels, no atomics on doubles).
  auto run = [](int threads) {
    ScopedNumThreads guard(threads);
    auto a = Param(13, 9, 53);
    auto b = Param(9, 11, 54);
    Backward(SumSquares(MatMul(a, b)));
    return std::make_pair(a->grad(), b->grad());
  };
  const auto serial = run(1);
  const auto threaded = run(7);
  EXPECT_EQ(std::memcmp(serial.first.data(), threaded.first.data(),
                        sizeof(double) * serial.first.size()),
            0);
  EXPECT_EQ(std::memcmp(serial.second.data(), threaded.second.data(),
                        sizeof(double) * serial.second.size()),
            0);
}

TEST(Autograd, GradAccumulatesOverSharedSubexpressions) {
  auto x = Param(2, 2, 29);
  // f = sum(x) + sum(x) => df/dx = 2.
  auto loss = Add(SumAll(x), SumAll(x));
  Backward(loss);
  for (int64_t i = 0; i < x->grad().size(); ++i)
    EXPECT_NEAR(x->grad().data()[i], 2.0, 1e-12);
}

TEST(Autograd, ConstantsGetNoGradients) {
  auto c = MakeConstant(Matrix(3, 3, 1.0));
  auto p = Param(3, 3, 30);
  auto loss = SumAll(Hadamard(c, p));
  Backward(loss);
  EXPECT_TRUE(c->grad().empty());
  EXPECT_FALSE(p->grad().empty());
}

TEST(Autograd, ZeroGradClears) {
  auto p = Param(2, 2, 31);
  Backward(SumAll(p));
  EXPECT_NEAR(p->grad()(0, 0), 1.0, 1e-12);
  p->ZeroGrad();
  EXPECT_NEAR(p->grad()(0, 0), 0.0, 1e-12);
}

// --- Optimisers ---------------------------------------------------------------

TEST(Optimizer, AdamConvergesOnShiftedQuadratic) {
  auto w = MakeParameter(Matrix(2, 2, 3.0));
  Matrix target(2, 2, -1.0);
  Adam::Options opt;
  opt.lr = 0.1;
  Adam adam({w}, opt);
  for (int i = 0; i < 500; ++i) {
    adam.ZeroGrad();
    Backward(SumSquares(Sub(w, MakeConstant(target))));
    adam.Step();
  }
  for (int64_t i = 0; i < w->value().size(); ++i)
    EXPECT_NEAR(w->value().data()[i], -1.0, 1e-3);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  // Adam folds L2 decay into the gradient: g + weight_decay * w.
  auto w = MakeParameter(Matrix(1, 1, 1.0));
  auto u = MakeParameter(Matrix(1, 1, 1.0));
  Adam::Options opt;
  opt.lr = 0.1;
  opt.weight_decay = 0.5;
  Adam adam({w, u}, opt);
  adam.ZeroGrad();
  // w's loss gradient is zero, so only decay acts: mhat = 0.5 and vhat = 0.25
  // exactly on the first step. u's gradient of -0.5 cancels its decay term.
  Backward(Add(Scale(SumAll(w), 0.0), Scale(SumAll(u), -0.5)));
  adam.Step();
  EXPECT_DOUBLE_EQ(w->value()(0, 0), 1.0 - 0.1 * 0.5 / (0.5 + 1e-8));
  EXPECT_EQ(u->value()(0, 0), 1.0);
}

}  // namespace
}  // namespace aneci::ag
