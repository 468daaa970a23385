#include <gtest/gtest.h>

#include <cstring>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "util/rng.h"

namespace aneci {
namespace {

void ExpectNear(const Matrix& a, const Matrix& b, double tol = 1e-10) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) EXPECT_NEAR(a(i, j), b(i, j), tol);
}

SparseMatrix RandomSparse(int rows, int cols, double density, Rng& rng) {
  std::vector<Triplet> trips;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng.NextBool(density)) trips.push_back({r, c, rng.Uniform(-2, 2)});
  return SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

TEST(Sparse, EmptyMatrix) {
  SparseMatrix m(3, 4);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.SumAll(), 0.0);
}

TEST(Sparse, FromTripletsSumsDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), -1.0);
}

TEST(Sparse, FromTripletsDropsExactZeroSums) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 0);
}

TEST(Sparse, ColumnsSortedWithinRows) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      1, 5, {{0, 4, 1.0}, {0, 1, 1.0}, {0, 3, 1.0}});
  ASSERT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_idx()[0], 1);
  EXPECT_EQ(m.col_idx()[1], 3);
  EXPECT_EQ(m.col_idx()[2], 4);
}

TEST(Sparse, IdentityAndDenseRoundTrip) {
  SparseMatrix id = SparseMatrix::Identity(4);
  EXPECT_EQ(id.nnz(), 4);
  Matrix d = id.ToDense();
  ExpectNear(d, Matrix::Identity(4));
  SparseMatrix back = SparseMatrix::FromDense(d);
  EXPECT_EQ(back.nnz(), 4);
}

TEST(Sparse, IdentityIsByteEqualToFromDenseIdentity) {
  // AnECI builds the feature operator of an attribute-free graph with
  // Identity(n), where it once converted a dense identity.
  for (int n : {0, 1, 7, 300}) {
    const SparseMatrix a = SparseMatrix::Identity(n);
    const SparseMatrix b = SparseMatrix::FromDense(Matrix::Identity(n));
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.row_ptr(), b.row_ptr());
    EXPECT_EQ(a.col_idx(), b.col_idx());
    ASSERT_EQ(a.values().size(), b.values().size());
    if (n == 0) continue;  // memcmp must not see the empty vectors' nulls.
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.values().size() * sizeof(double)),
              0);
  }
}

TEST(Sparse, FromDenseDropTolerance) {
  Matrix d = Matrix::FromRows({{0.001, 1.0}, {0.0, -0.5}});
  SparseMatrix m = SparseMatrix::FromDense(d, 0.01);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(Sparse, MultiplyMatchesDense) {
  Rng rng(31);
  SparseMatrix s = RandomSparse(7, 9, 0.3, rng);
  Matrix x = Matrix::RandomNormal(9, 4, 1.0, rng);
  ExpectNear(s.Multiply(x), MatMul(s.ToDense(), x));
}

TEST(Sparse, SpGemmMatchesDense) {
  Rng rng(35);
  SparseMatrix a = RandomSparse(6, 8, 0.4, rng);
  SparseMatrix b = RandomSparse(8, 5, 0.4, rng);
  ExpectNear(a.MultiplySparse(b).ToDense(),
             MatMul(a.ToDense(), b.ToDense()));
}

TEST(Sparse, SpGemmDropTolPrunesSmallEntries) {
  SparseMatrix a =
      SparseMatrix::FromTriplets(1, 2, {{0, 0, 1e-4}, {0, 1, 1.0}});
  SparseMatrix b =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  SparseMatrix c = a.MultiplySparse(b, 1e-3);
  EXPECT_EQ(c.nnz(), 1);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 1.0);
}

TEST(Sparse, AddScaledMatchesDense) {
  Rng rng(37);
  SparseMatrix a = RandomSparse(6, 6, 0.3, rng);
  SparseMatrix b = RandomSparse(6, 6, 0.3, rng);
  Matrix expected = a.ToDense();
  expected.Axpy(2.5, b.ToDense());
  ExpectNear(a.AddScaled(b, 2.5).ToDense(), expected);
}

TEST(Sparse, TransposedMatchesDense) {
  Rng rng(39);
  SparseMatrix a = RandomSparse(5, 8, 0.35, rng);
  ExpectNear(a.Transposed().ToDense(), Transpose(a.ToDense()));
}

TEST(Sparse, RowNormalizedL1RowsSumToOne) {
  Rng rng(41);
  SparseMatrix a = RandomSparse(10, 10, 0.4, rng);
  // Make all values positive so row sums equal L1 norms.
  for (double& v : a.mutable_values()) v = std::abs(v) + 0.1;
  SparseMatrix n = a.RowNormalizedL1();
  const std::vector<double> sums = n.RowSumsVec();
  for (int r = 0; r < n.rows(); ++r) {
    if (a.RowNnz(r) == 0) {
      EXPECT_DOUBLE_EQ(sums[r], 0.0);
    } else {
      EXPECT_NEAR(sums[r], 1.0, 1e-12);
    }
  }
}

TEST(Sparse, SymmetricNormalizationOfRegularGraph) {
  // 3-cycle with self-loops: every degree is 3, so every stored entry
  // becomes 1/3.
  std::vector<Triplet> trips;
  for (int i = 0; i < 3; ++i) {
    trips.push_back({i, i, 1.0});
    trips.push_back({i, (i + 1) % 3, 1.0});
    trips.push_back({(i + 1) % 3, i, 1.0});
  }
  SparseMatrix a = SparseMatrix::FromTriplets(3, 3, trips);
  SparseMatrix n = a.SymmetricallyNormalized();
  for (double v : n.values()) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(Sparse, RowSumsAndTotal) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  const auto sums = m.RowSumsVec();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
  EXPECT_DOUBLE_EQ(m.SumAll(), 6.0);
}

TEST(Sparse, ToTripletsRoundTrip) {
  Rng rng(43);
  SparseMatrix a = RandomSparse(6, 7, 0.3, rng);
  SparseMatrix b = SparseMatrix::FromTriplets(6, 7, a.ToTriplets());
  ExpectNear(a.ToDense(), b.ToDense());
}

class SparseDensity : public testing::TestWithParam<double> {};

TEST_P(SparseDensity, MultiplyAgreesAcrossDensities) {
  Rng rng(static_cast<uint64_t>(GetParam() * 1000));
  SparseMatrix s = RandomSparse(12, 12, GetParam(), rng);
  Matrix x = Matrix::RandomNormal(12, 3, 1.0, rng);
  ExpectNear(s.Multiply(x), MatMul(s.ToDense(), x));
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseDensity,
                         testing::Values(0.0, 0.05, 0.2, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace aneci
