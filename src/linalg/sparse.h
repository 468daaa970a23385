// Compressed-sparse-row matrix used for adjacency and high-order proximity
// matrices, with the SpMM / SpGEMM kernels the GCN propagation and proximity
// computation need.
#ifndef ANECI_LINALG_SPARSE_H_
#define ANECI_LINALG_SPARSE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/check.h"

namespace aneci {

/// A coordinate-format entry used when assembling sparse matrices.
struct Triplet {
  int row;
  int col;
  double value;
};

/// Immutable CSR matrix of doubles. Column indices within a row are sorted
/// and unique after construction.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }
  SparseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Builds from triplets; duplicate (row, col) entries are summed.
  static SparseMatrix FromTriplets(int rows, int cols,
                                   std::vector<Triplet> triplets);

  static SparseMatrix Identity(int n);

  /// Dense -> sparse, dropping entries with |v| <= tol.
  static SparseMatrix FromDense(const Matrix& dense, double tol = 0.0);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Number of stored entries in row r.
  int RowNnz(int r) const {
    return static_cast<int>(row_ptr_[r + 1] - row_ptr_[r]);
  }

  /// Value at (r, c); O(log nnz(r)). Returns 0 for unstored entries.
  double At(int r, int c) const;

  /// Dense equivalent; only for small matrices / tests.
  Matrix ToDense() const;

  /// y = this * x for a dense matrix x: (m x n) * (n x k) -> (m x k).
  Matrix Multiply(const Matrix& x) const;

  /// Sparse-sparse product (SpGEMM). Entries with |v| <= drop_tol are
  /// discarded from the result.
  SparseMatrix MultiplySparse(const SparseMatrix& other,
                              double drop_tol = 0.0) const;

  /// this + alpha * other (same shape).
  SparseMatrix AddScaled(const SparseMatrix& other, double alpha) const;

  SparseMatrix Transposed() const;

  /// Rows scaled to unit L1 norm (zero rows untouched).
  SparseMatrix RowNormalizedL1() const;

  /// D^{-1/2} * this * D^{-1/2} where D = diag(row sums). Zero-degree rows
  /// are left untouched. This is the symmetric GCN normalisation.
  SparseMatrix SymmetricallyNormalized() const;

  /// Per-row sums (the generalised degrees k~ of Definition 3).
  std::vector<double> RowSumsVec() const;

  double SumAll() const;

  /// All stored entries as triplets.
  std::vector<Triplet> ToTriplets() const;

 private:
  int rows_;
  int cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> values_;
};

}  // namespace aneci

#endif  // ANECI_LINALG_SPARSE_H_
