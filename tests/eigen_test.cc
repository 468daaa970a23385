#include <gtest/gtest.h>

#include <cmath>

#include "data/sbm.h"
#include "embed/spectral.h"
#include "linalg/eigen.h"
#include "util/rng.h"

namespace aneci {
namespace {

TEST(JacobiEigen, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0, 0}, {0, 1, 0}, {0, 0, 2}});
  EigenResult eig = JacobiEigen(a);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-10);
}

TEST(JacobiEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  EigenResult eig = JacobiEigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
  // Eigenvector of lambda=1 is (1,-1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(JacobiEigen, ReconstructsMatrix) {
  // A = V diag(L) V^T must reproduce the input.
  Rng rng(1);
  Matrix b = Matrix::RandomNormal(6, 6, 1.0, rng);
  Matrix a = Add(b, Transpose(b));  // Symmetric.
  EigenResult eig = JacobiEigen(a);
  Matrix scaled = eig.vectors;  // V diag(L).
  for (int c = 0; c < 6; ++c)
    for (int r = 0; r < 6; ++r) scaled(r, c) *= eig.values[c];
  Matrix rebuilt = MatMulTransB(scaled, eig.vectors);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j) EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-8);
}

TEST(JacobiEigen, VectorsAreOrthonormal) {
  Rng rng(2);
  Matrix b = Matrix::RandomNormal(8, 8, 1.0, rng);
  Matrix a = Add(b, Transpose(b));
  EigenResult eig = JacobiEigen(a);
  Matrix gram = MatMulTransA(eig.vectors, eig.vectors);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST(Lanczos, MatchesJacobiOnSmallMatrix) {
  Rng rng(3);
  Matrix b = Matrix::RandomNormal(12, 12, 1.0, rng);
  Matrix dense = Add(b, Transpose(b));
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EigenResult exact = JacobiEigen(dense);
  EigenResult lanczos = LanczosSmallest(sparse, 3, rng, 12);
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(lanczos.values[i], exact.values[i], 1e-6);
}

TEST(Lanczos, EigenpairsSatisfyDefinition) {
  Rng rng(4);
  // Laplacian-like sparse SPD matrix.
  std::vector<Triplet> trips;
  const int n = 60;
  for (int i = 0; i < n; ++i) trips.push_back({i, i, 4.0});
  for (int i = 0; i + 1 < n; ++i) {
    trips.push_back({i, i + 1, -1.0});
    trips.push_back({i + 1, i, -1.0});
  }
  SparseMatrix a = SparseMatrix::FromTriplets(n, n, trips);
  EigenResult eig = LanczosSmallest(a, 4, rng, /*steps=*/60);
  for (int c = 0; c < 4; ++c) {
    Matrix v(n, 1);
    for (int i = 0; i < n; ++i) v(i, 0) = eig.vectors(i, c);
    Matrix av = a.Multiply(v);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, 0), eig.values[c] * v(i, 0), 1e-6);
  }
}

TEST(LaplacianEigenmapsTest, EmbeddingSeparatesBlocks) {
  SbmOptions opt;
  opt.num_nodes = 150;
  opt.num_classes = 3;
  opt.num_edges = 900;
  opt.intra_fraction = 0.95;
  Rng rng(6);
  Graph g = GenerateSbm(opt, rng);
  LaplacianEigenmaps::Options eopt;
  eopt.dim = 4;
  LaplacianEigenmaps model(eopt);
  EmbedOptions eo;
  eo.rng = &rng;
  Matrix z = model.Embed(g, eo);
  EXPECT_EQ(z.rows(), 150);
  EXPECT_EQ(z.cols(), 4);
  // Same-class pairs should be closer on average than cross-class pairs.
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (int i = 0; i < 150; i += 3) {
    for (int j = i + 1; j < 150; j += 3) {
      double d = 0.0;
      for (int c = 0; c < 4; ++c) {
        const double diff = z(i, c) - z(j, c);
        d += diff * diff;
      }
      if (g.labels()[i] == g.labels()[j]) {
        intra += d;
        ++n_intra;
      } else {
        inter += d;
        ++n_inter;
      }
    }
  }
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

}  // namespace
}  // namespace aneci
