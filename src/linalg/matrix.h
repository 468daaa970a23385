// Dense row-major matrix of doubles plus the kernels used throughout the
// library (GEMM, transpose, row softmax/normalisation, elementwise ops).
// Sized for the graph-embedding workloads in this repo: matrices are tall
// (N x h with h <= few hundred), so kernels are simple cache-friendly loops.
#ifndef ANECI_LINALG_MATRIX_H_
#define ANECI_LINALG_MATRIX_H_

#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace aneci {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    ANECI_CHECK(rows >= 0 && cols >= 0);
  }

  /// Adopts `storage` as the backing buffer without touching its contents
  /// (the caller must overwrite every entry before reading — used by the
  /// autograd memory planner to recycle buffers across the backward sweep).
  /// `storage` is resized to exactly rows * cols; a capacity-preserving
  /// shrink/grow, so recycled buffers keep their allocation.
  Matrix(int rows, int cols, std::vector<double>&& storage)
      : rows_(rows), cols_(cols), data_(std::move(storage)) {
    ANECI_CHECK(rows >= 0 && cols >= 0);
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  /// Builds from nested initializer-style data; all rows must be equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  static Matrix Identity(int n);

  /// Entries iid Uniform(-scale, scale).
  static Matrix RandomUniform(int rows, int cols, double scale, Rng& rng);

  /// Entries iid Normal(0, std^2).
  static Matrix RandomNormal(int rows, int cols, double std, Rng& rng);

  /// Glorot/Xavier uniform initialisation for a weight applied as X * W:
  /// returns a (fan_in rows x fan_out cols) matrix with entries iid
  /// Uniform(-L, L), L = sqrt(6 / (fan_in + fan_out)). Orientation is
  /// (rows, cols) = (fan_in, fan_out); all call sites pass
  /// (input_dim, output_dim).
  static Matrix GlorotUniform(int fan_in, int fan_out, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }

  double& operator()(int r, int c) {
    ANECI_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    ANECI_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* RowPtr(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* RowPtr(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void SetZero() { Fill(0.0); }

  /// Steals the backing buffer, leaving this matrix empty (0 x 0). The
  /// planner's arena uses this to recycle storage after a gradient dies.
  std::vector<double> TakeStorage() {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  // In-place arithmetic. Shapes must match exactly.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// this += alpha * other.
  void Axpy(double alpha, const Matrix& other);

  /// Elementwise product, in place.
  void HadamardInPlace(const Matrix& other);

  /// Extracts the sub-matrix of the given rows (in order).
  Matrix SelectRows(const std::vector<int>& indices) const;

  double FrobeniusNorm() const;
  double Sum() const;
  double Max() const;
  double Min() const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

// --- Free-function kernels -------------------------------------------------

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

Matrix Transpose(const Matrix& a);

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double s);

/// Row-wise softmax; numerically stabilised by the row max.
Matrix RowSoftmax(const Matrix& a);

/// Rows scaled to unit L1 norm (rows with zero norm are left as zero).
Matrix RowNormalizeL1(const Matrix& a);

/// Per-row sums, as an (n x 1) column.
std::vector<double> RowSums(const Matrix& a);

double Dot(const std::vector<double>& a, const std::vector<double>& b);
double CosineSimilarity(const double* a, const double* b, int n);

}  // namespace aneci

#endif  // ANECI_LINALG_MATRIX_H_
