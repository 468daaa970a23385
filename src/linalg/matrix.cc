#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels/kernels.h"

namespace aneci {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const int r = static_cast<int>(rows.size());
  const int c = static_cast<int>(rows[0].size());
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    ANECI_CHECK_EQ(static_cast<int>(rows[i].size()), c);
    std::copy(rows[i].begin(), rows[i].end(), m.RowPtr(i));
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomUniform(int rows, int cols, double scale, Rng& rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(-scale, scale);
  return m;
}

Matrix Matrix::RandomNormal(int rows, int cols, double std, Rng& rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = std * rng.NextGaussian();
  return m;
}

Matrix Matrix::GlorotUniform(int fan_in, int fan_out, Rng& rng) {
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  return RandomUniform(fan_in, fan_out, limit, rng);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ANECI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  ANECI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  ANECI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::HadamardInPlace(const Matrix& other) {
  ANECI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::Apply(const std::function<double(double)>& f) {
  for (double& v : data_) v = f(v);
}

std::vector<double> Matrix::Row(int r) const {
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

Matrix Matrix::SelectRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    ANECI_CHECK(indices[i] >= 0 && indices[i] < rows_);
    std::copy(RowPtr(indices[i]), RowPtr(indices[i]) + cols_,
              out.RowPtr(static_cast<int>(i)));
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Max() const {
  ANECI_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::Min() const {
  ANECI_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

// The GEMM free functions are forwarding shims over the process-wide kernel
// backend (linalg/kernels/kernels.h); validation and metrics live there.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  kernels::Active().Gemm(false, false, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  kernels::Active().Gemm(true, false, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  kernels::Active().Gemm(false, true, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c += b;
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c -= b;
  return c;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.HadamardInPlace(b);
  return c;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix c = a;
  c *= s;
  return c;
}

Matrix RowSoftmax(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const double* in = a.RowPtr(r);
    double* o = out.RowPtr(r);
    double mx = in[0];
    for (int c = 1; c < a.cols(); ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    for (int c = 0; c < a.cols(); ++c) o[c] /= sum;
  }
  return out;
}

Matrix RowNormalizeL1(const Matrix& a) {
  Matrix out = a;
  for (int r = 0; r < a.rows(); ++r) {
    double* row = out.RowPtr(r);
    double s = 0.0;
    for (int c = 0; c < a.cols(); ++c) s += std::abs(row[c]);
    if (s > 0.0)
      for (int c = 0; c < a.cols(); ++c) row[c] /= s;
  }
  return out;
}

Matrix RowNormalizeL2(const Matrix& a) {
  Matrix out = a;
  for (int r = 0; r < a.rows(); ++r) {
    double* row = out.RowPtr(r);
    double s = 0.0;
    for (int c = 0; c < a.cols(); ++c) s += row[c] * row[c];
    s = std::sqrt(s);
    if (s > 0.0)
      for (int c = 0; c < a.cols(); ++c) row[c] /= s;
  }
  return out;
}

std::vector<double> RowSums(const Matrix& a) {
  std::vector<double> s(a.rows(), 0.0);
  for (int r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    for (int c = 0; c < a.cols(); ++c) s[r] += row[c];
  }
  return s;
}

std::vector<double> ColMeans(const Matrix& a) {
  std::vector<double> m(a.cols(), 0.0);
  if (a.rows() == 0) return m;
  for (int r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    for (int c = 0; c < a.cols(); ++c) m[c] += row[c];
  }
  for (double& v : m) v /= a.rows();
  return m;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  ANECI_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double CosineSimilarity(const double* a, const double* b, int n) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int i = 0; i < n; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom == 0.0) return 0.0;
  return dot / denom;
}

}  // namespace aneci
