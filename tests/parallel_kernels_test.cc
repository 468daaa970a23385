// Serial-equivalence property tests for the parallelized kernels: for
// randomized shapes/sparsities, outputs at ANECI_THREADS in {2, 7} must be
// BIT-identical to the serial path (ANECI_THREADS=1). Exact == is valid —
// not approximate — because every kernel either writes disjoint output
// slices with unchanged per-element operation order, or merges per-chunk
// partials in a fixed chunk order independent of the thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/tsne.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "graph/graph.h"
#include "graph/proximity.h"
#include "linalg/kernels/kernels.h"
#include "linalg/kmeans.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

const int kThreadSettings[] = {2, 7};

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0)
      << what << ": parallel result differs bitwise from serial";
}

void ExpectBitEqual(const SparseMatrix& a, const SparseMatrix& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        sizeof(double) * a.nnz()),
            0)
      << what << ": parallel values differ bitwise from serial";
}

Matrix RandomMatrix(int rows, int cols, Rng& rng, double zero_fraction) {
  Matrix m = Matrix::RandomNormal(rows, cols, 1.0, rng);
  // Inject exact zeros to exercise the av == 0.0 skip branches.
  for (int64_t i = 0; i < m.size(); ++i)
    if (rng.NextBool(zero_fraction)) m.data()[i] = 0.0;
  return m;
}

SparseMatrix RandomSparse(int rows, int cols, double density, Rng& rng) {
  std::vector<Triplet> trips;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng.NextBool(density)) trips.push_back({r, c, rng.Uniform(-2, 2)});
  return SparseMatrix::FromTriplets(rows, cols, trips);
}

// Runs `compute` serially, then at each threaded setting, comparing each
// dense result bitwise against the serial one.
void CheckDense(const std::function<Matrix()>& compute, const char* what) {
  Matrix serial;
  {
    ScopedNumThreads guard(1);
    serial = compute();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    ExpectBitEqual(compute(), serial, what);
  }
}

void CheckSparse(const std::function<SparseMatrix()>& compute,
                 const char* what) {
  SparseMatrix serial;
  {
    ScopedNumThreads guard(1);
    serial = compute();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    ExpectBitEqual(compute(), serial, what);
  }
}

TEST(ParallelKernels, MatMulMatchesSerialBitwise) {
  Rng shapes(101);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 1 + static_cast<int>(shapes.NextInt(90));
    const int k = 1 + static_cast<int>(shapes.NextInt(70));
    const int n = 1 + static_cast<int>(shapes.NextInt(80));
    Rng rng(1000 + trial);
    const Matrix a = RandomMatrix(m, k, rng, 0.2);
    const Matrix b = RandomMatrix(k, n, rng, 0.1);
    CheckDense([&] { return MatMul(a, b); }, "MatMul");
  }
}

TEST(ParallelKernels, MatMulTransAMatchesSerialBitwise) {
  Rng shapes(102);
  for (int trial = 0; trial < 8; ++trial) {
    const int k = 1 + static_cast<int>(shapes.NextInt(90));
    const int m = 1 + static_cast<int>(shapes.NextInt(70));
    const int n = 1 + static_cast<int>(shapes.NextInt(60));
    Rng rng(2000 + trial);
    const Matrix a = RandomMatrix(k, m, rng, 0.25);
    const Matrix b = RandomMatrix(k, n, rng, 0.0);
    CheckDense([&] { return MatMulTransA(a, b); }, "MatMulTransA");
  }
}

TEST(ParallelKernels, MatMulTransBMatchesSerialBitwise) {
  Rng shapes(103);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 1 + static_cast<int>(shapes.NextInt(80));
    const int k = 1 + static_cast<int>(shapes.NextInt(50));
    const int n = 1 + static_cast<int>(shapes.NextInt(90));
    Rng rng(3000 + trial);
    const Matrix a = RandomMatrix(m, k, rng, 0.0);
    const Matrix b = RandomMatrix(n, k, rng, 0.15);
    CheckDense([&] { return MatMulTransB(a, b); }, "MatMulTransB");
  }
}

TEST(ParallelKernels, SpmmMatchesSerialBitwise) {
  Rng shapes(104);
  for (double density : {0.02, 0.15, 0.6}) {
    const int rows = 20 + static_cast<int>(shapes.NextInt(120));
    const int cols = 20 + static_cast<int>(shapes.NextInt(120));
    const int k = 1 + static_cast<int>(shapes.NextInt(40));
    Rng rng(4000 + static_cast<uint64_t>(density * 100));
    const SparseMatrix s = RandomSparse(rows, cols, density, rng);
    const Matrix x = RandomMatrix(cols, k, rng, 0.0);
    CheckDense([&] { return s.Multiply(x); }, "SparseMatrix::Multiply");
  }
}

TEST(ParallelKernels, SpGemmAndRowNormalizeMatchSerialBitwise) {
  Rng shapes(105);
  for (double density : {0.03, 0.2}) {
    const int n = 30 + static_cast<int>(shapes.NextInt(100));
    Rng rng(5000 + static_cast<uint64_t>(density * 100));
    const SparseMatrix a = RandomSparse(n, n, density, rng);
    const SparseMatrix b = RandomSparse(n, n, density, rng);
    CheckSparse([&] { return a.MultiplySparse(b); },
                "SparseMatrix::MultiplySparse");
    CheckSparse([&] { return a.MultiplySparse(b, /*drop_tol=*/1e-3); },
                "SparseMatrix::MultiplySparse(drop_tol)");
    CheckSparse([&] { return a.RowNormalizedL1(); },
                "SparseMatrix::RowNormalizedL1");
  }
}

TEST(ParallelKernels, HighOrderProximityMatchesSerialBitwise) {
  Rng rng(106);
  const int n = 80;
  std::vector<Triplet> trips;
  for (int r = 0; r < n; ++r) {
    for (int c = r + 1; c < n; ++c) {
      if (rng.NextBool(0.06)) {
        trips.push_back({r, c, 1.0});
        trips.push_back({c, r, 1.0});
      }
    }
  }
  const SparseMatrix adj = SparseMatrix::FromTriplets(n, n, trips);
  ProximityOptions options;
  options.order = 3;
  options.weights = {1.0, 0.5, 0.25};
  CheckSparse([&] { return HighOrderProximityFromAdjacency(adj, options); },
              "HighOrderProximity");
}

TEST(ParallelKernels, KMeansMatchesSerialBitwise) {
  // Same seed per thread setting: identical assignment, centroids, inertia
  // and rng consumption (empty-cluster reseeds happen in serial sections).
  Rng data_rng(107);
  const Matrix points = Matrix::RandomNormal(400, 12, 1.0, data_rng);
  KMeansOptions options;
  options.max_iterations = 25;
  options.restarts = 2;

  auto run = [&] {
    Rng rng(77);
    return KMeans(points, 5, rng, options);
  };
  KMeansResult serial;
  {
    ScopedNumThreads guard(1);
    serial = run();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    const KMeansResult parallel = run();
    EXPECT_EQ(parallel.assignment, serial.assignment);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    // Bitwise, not approximate: the chunk-ordered merge is deterministic.
    EXPECT_EQ(std::memcmp(&parallel.inertia, &serial.inertia,
                          sizeof(double)),
              0);
    ExpectBitEqual(parallel.centroids, serial.centroids, "KMeans centroids");
  }
}

TEST(ParallelKernels, TsneMatchesSerialBitwise) {
  Rng data_rng(108);
  const Matrix points = Matrix::RandomNormal(48, 8, 1.0, data_rng);
  TsneOptions options;
  options.iterations = 30;
  options.exaggeration_iters = 10;

  auto run = [&] {
    Rng rng(9);
    return Tsne(points, options, rng);
  };
  Matrix serial;
  {
    ScopedNumThreads guard(1);
    serial = run();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    ExpectBitEqual(run(), serial, "Tsne");
  }
}

// The serial pair loop that ag::InnerProductPairBce replaced, kept as the
// bitwise reference: the loss, then dp for an upstream gradient g.
double SerialPairBce(const Matrix& pm, const std::vector<ag::PairTarget>& pairs,
                     double g, Matrix* dp) {
  const int k = pm.cols();
  auto softplus = [](double x) {
    return x > 30.0 ? x : std::log1p(std::exp(x));
  };
  double loss = 0.0;
  for (const ag::PairTarget& pt : pairs) {
    double d = 0.0;
    const double* a = pm.RowPtr(pt.u);
    const double* b = pm.RowPtr(pt.v);
    for (int c = 0; c < k; ++c) d += a[c] * b[c];
    loss += softplus(d) - pt.target * d;
  }
  *dp = Matrix(pm.rows(), pm.cols());
  for (const ag::PairTarget& pt : pairs) {
    double d = 0.0;
    const double* a = pm.RowPtr(pt.u);
    const double* b = pm.RowPtr(pt.v);
    for (int c = 0; c < k; ++c) d += a[c] * b[c];
    const double s = 1.0 / (1.0 + std::exp(-d));
    const double coeff = g * (s - pt.target);
    double* du = dp->RowPtr(pt.u);
    double* dv = dp->RowPtr(pt.v);
    for (int c = 0; c < k; ++c) {
      du[c] += coeff * b[c];
      dv[c] += coeff * a[c];
    }
  }
  return loss;
}

TEST(ParallelKernels, InnerProductPairBceMatchesSerialBitwise) {
  // Unsorted pairs with repeats and u == v, as the baseline autoencoders
  // pass them; enough of them for many pair and row chunks. The last rows
  // appear in no pair, and row 0 is large enough to take the d > 30 branch
  // of the softplus.
  Rng rng(113);
  const int n = 900, k = 7;
  Matrix pm = RandomMatrix(n, k, rng, 0.05);
  for (int c = 0; c < k; ++c) pm(0, c) = 4.0;
  std::vector<ag::PairTarget> pairs;
  for (int i = 0; i < 30000; ++i) {
    const int u = static_cast<int>(rng.NextInt(n - 40));
    const int v = rng.NextBool(0.05) ? u : static_cast<int>(rng.NextInt(n - 40));
    const double t = rng.NextBool(0.5) ? 0.0 : rng.Uniform(0.0, 1.0);
    pairs.push_back({u, v, t});
    if (rng.NextBool(0.1)) pairs.push_back({u, v, t});  // Repeated pair.
  }
  for (int i = 0; i < 50; ++i) pairs.push_back({0, i, 1.0});
  const double g = 0.37;
  Matrix want_grad;
  const double want_loss = SerialPairBce(pm, pairs, g, &want_grad);

  const ag::PairSet shared = pairs;
  for (int threads : {1, 2, 7}) {
    ScopedNumThreads guard(threads);
    // A one-off vector and a reused set take the same path.
    for (const ag::PairSet& set : {ag::PairSet(pairs), shared}) {
      ag::VarPtr p = ag::MakeParameter(pm);
      ag::VarPtr loss = ag::InnerProductPairBce(p, set);
      const double got_loss = loss->value()(0, 0);
      EXPECT_EQ(std::memcmp(&got_loss, &want_loss, sizeof(double)), 0)
          << "loss at " << threads << " threads: " << got_loss << " vs "
          << want_loss;
      ag::Backward(ag::Scale(loss, g));
      ExpectBitEqual(p->grad(), want_grad, "InnerProductPairBce gradient");
    }
  }
}

// A random CSR with its first two rows and its last column left empty, and
// one empty row in the middle.
SparseMatrix SparseWithEmptyLines(int rows, int cols, double density,
                                  Rng& rng) {
  std::vector<Triplet> trips;
  for (int r = 2; r < rows; ++r) {
    if (r == rows / 2) continue;
    for (int c = 0; c + 1 < cols; ++c)
      if (rng.NextBool(density)) trips.push_back({r, c, rng.Uniform(-2, 2)});
  }
  return SparseMatrix::FromTriplets(rows, cols, trips);
}

TEST(ParallelKernels, TransposedCsrSpmmMatchesSpmmTOnEveryBackend) {
  // Spmm over S^T's CSR sums output row j's terms in ascending source row,
  // as SpmmT over S does, so the two agree bit for bit on each backend and
  // at every thread count, including the zero rows empty lines give.
  Rng rng(114);
  for (const std::string& name : kernels::AvailableBackends()) {
    const kernels::Backend* be = kernels::BackendByName(name);
    ASSERT_NE(be, nullptr) << name;
    for (int k : {1, 5, 16, 64}) {
      const SparseMatrix s = SparseWithEmptyLines(140, 90, 0.08, rng);
      const SparseMatrix t = s.Transposed();
      const Matrix x = RandomMatrix(s.rows(), k, rng, 0.1);
      Matrix want(s.cols(), k);
      {
        ScopedNumThreads guard(1);
        be->SpmmT(s, x, &want);
      }
      for (int threads : {1, 2, 7}) {
        ScopedNumThreads guard(threads);
        Matrix got(s.cols(), k);
        got.Fill(std::nan(""));  // Spmm must overwrite every entry.
        be->Spmm(t, x, &got);
        ExpectBitEqual(got, want, (name + " Spmm(S^T) vs SpmmT(S)").c_str());
      }
    }
  }
}

TEST(ParallelKernels, SparseOperatorDetectsBitSymmetry) {
  // The symmetric GCN propagation is its own transpose, so SpMMAddBias's
  // backward runs Spmm over it.
  Rng rng(115);
  std::vector<Edge> edges;
  for (int i = 0; i < 600; ++i)
    edges.push_back({static_cast<int>(rng.NextInt(150)),
                     static_cast<int>(rng.NextInt(150))});
  const Graph g = Graph::FromEdges(150, edges);
  const SparseMatrix s_norm = g.NormalizedAdjacency();
  EXPECT_TRUE(ag::SparseOperator(&s_norm).symmetric());

  // A row-normalised operator is not symmetric, and neither is one whose
  // mirror entry differs in the last bit only: both keep SpmmT.
  const SparseMatrix rw = g.Adjacency(true).RowNormalizedL1();
  SparseMatrix nudged = s_norm;
  int64_t off_diagonal = 0;  // Row 0's first entry off the diagonal.
  while (nudged.col_idx()[off_diagonal] == 0) ++off_diagonal;
  ASSERT_LT(off_diagonal, nudged.row_ptr()[1]);
  nudged.mutable_values()[off_diagonal] =
      std::nextafter(nudged.values()[off_diagonal], 2.0);
  EXPECT_FALSE(ag::SparseOperator(&rw).symmetric());
  EXPECT_FALSE(ag::SparseOperator(&nudged).symmetric());

  // SpMMAddBias has the value and gradient bits of AddRowBroadcast(SpMM),
  // through Spmm on the symmetric operator and SpmmT on the other, at every
  // thread count.
  const Matrix x = RandomMatrix(150, 12, rng, 0.1);
  const Matrix bias = RandomMatrix(1, 12, rng, 0.0);
  const Matrix upstream = RandomMatrix(150, 12, rng, 0.0);
  const SparseMatrix* const operators[] = {&s_norm, &rw};
  for (const SparseMatrix* s : operators) {
    const ag::SparseOperator op(s);
    auto run = [&](bool fused, Matrix* dx, Matrix* db) {
      ag::VarPtr xv = ag::MakeParameter(x);
      ag::VarPtr bv = ag::MakeParameter(bias);
      ag::VarPtr y = fused ? ag::SpMMAddBias(op, xv, bv)
                           : ag::AddRowBroadcast(ag::SpMM(s, xv), bv);
      ag::Backward(ag::SumAll(ag::Hadamard(y, ag::MakeConstant(upstream))));
      *dx = xv->grad();
      *db = bv->grad();
      return y->value();
    };
    Matrix want_dx, want_db;
    Matrix want_y;
    {
      ScopedNumThreads guard(1);
      want_y = run(false, &want_dx, &want_db);
    }
    for (int threads : {1, 2, 7}) {
      ScopedNumThreads guard(threads);
      Matrix dx, db;
      ExpectBitEqual(run(true, &dx, &db), want_y, "SpMMAddBias value");
      ExpectBitEqual(dx, want_dx, "SpMMAddBias input gradient");
      ExpectBitEqual(db, want_db, "SpMMAddBias bias gradient");
    }
  }
}

TEST(ParallelKernels, TraceQuadraticSparseReusesTheForwardProduct) {
  // The backward keeps the forward's S P and adds S^T P to it; the closure
  // it replaced recomputed S P and added S^T P to that. Same bits, on a
  // non-symmetric S with empty rows and columns.
  Rng rng(116);
  const SparseMatrix s = SparseWithEmptyLines(160, 160, 0.05, rng);
  const Matrix pm = RandomMatrix(160, 6, rng, 0.05);
  const double g = -1.7;
  double want_f = 0.0;
  Matrix want_grad;
  {
    ScopedNumThreads guard(1);
    const kernels::Backend& be = kernels::Active();
    Matrix sp(160, 6);
    be.Spmm(s, pm, &sp);
    for (int64_t i = 0; i < sp.size(); ++i)
      want_f += sp.data()[i] * pm.data()[i];
    Matrix d(160, 6), dt(160, 6);
    be.Spmm(s, pm, &d);
    be.SpmmT(s, pm, &dt);
    d += dt;
    d *= g;
    want_grad = d;
  }
  for (int threads : {1, 2, 7}) {
    ScopedNumThreads guard(threads);
    ag::VarPtr p = ag::MakeParameter(pm);
    ag::VarPtr f = ag::TraceQuadraticSparse(&s, p);
    const double got_f = f->value()(0, 0);
    EXPECT_EQ(std::memcmp(&got_f, &want_f, sizeof(double)), 0)
        << "loss at " << threads << " threads";
    ag::Backward(ag::Scale(f, g));
    ExpectBitEqual(p->grad(), want_grad, "TraceQuadraticSparse gradient");
  }
}

TEST(ParallelKernels, EnvThreadSettingOneForcesSerialPath) {
  // With the pool at size 1 no workers exist, so everything runs on the
  // calling thread; sanity-check a kernel still works there.
  ScopedNumThreads guard(1);
  Rng rng(109);
  const Matrix a = RandomMatrix(17, 9, rng, 0.1);
  const Matrix b = RandomMatrix(9, 13, rng, 0.1);
  const Matrix c = MatMul(a, b);
  for (int i = 0; i < 17; ++i)
    for (int j = 0; j < 13; ++j) {
      double s = 0.0;
      for (int k = 0; k < 9; ++k) s += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
}

}  // namespace
}  // namespace aneci
