#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels/kernels.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

// Row grain sized so one chunk covers ~64k multiply-adds of SpMM work;
// tiny matrices collapse to one chunk and run serially.
int64_t SpmmRowGrain(int64_t rows, int64_t nnz, int64_t dense_cols) {
  constexpr int64_t kMinFlopsPerChunk = 1 << 16;
  const int64_t flops_per_row =
      2 * std::max<int64_t>(1, nnz / std::max<int64_t>(1, rows)) *
      std::max<int64_t>(1, dense_cols);
  return std::max<int64_t>(1, kMinFlopsPerChunk / flops_per_row);
}

}  // namespace

SparseMatrix SparseMatrix::FromTriplets(int rows, int cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    ANECI_CHECK(t.row >= 0 && t.row < rows);
    ANECI_CHECK(t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SparseMatrix m(rows, cols);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      double v = triplets[i].value;
      const int c = triplets[i].col;
      ++i;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[r + 1] = static_cast<int64_t>(m.col_idx_.size());
  }
  return m;
}

SparseMatrix SparseMatrix::Identity(int n) {
  SparseMatrix m(n, n);
  m.col_idx_.resize(n);
  m.values_.assign(n, 1.0);
  for (int i = 0; i < n; ++i) {
    m.col_idx_[i] = i;
    m.row_ptr_[i + 1] = i + 1;
  }
  return m;
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense, double tol) {
  std::vector<Triplet> trips;
  for (int r = 0; r < dense.rows(); ++r)
    for (int c = 0; c < dense.cols(); ++c)
      if (std::abs(dense(r, c)) > tol) trips.push_back({r, c, dense(r, c)});
  return FromTriplets(dense.rows(), dense.cols(), std::move(trips));
}

double SparseMatrix::At(int r, int c) const {
  ANECI_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  const int* begin = col_idx_.data() + row_ptr_[r];
  const int* end = col_idx_.data() + row_ptr_[r + 1];
  const int* it = std::lower_bound(begin, end, c);
  if (it != end && *it == c) return values_[it - col_idx_.data()];
  return 0.0;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (int r = 0; r < rows_; ++r)
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      d(r, col_idx_[i]) = values_[i];
  return d;
}

// A forwarding shim over the process-wide kernel backend
// (linalg/kernels/kernels.h); validation and metrics live there.

Matrix SparseMatrix::Multiply(const Matrix& x) const {
  Matrix y(rows_, x.cols());
  kernels::Active().Spmm(*this, x, &y);
  return y;
}

SparseMatrix SparseMatrix::MultiplySparse(const SparseMatrix& other,
                                          double drop_tol) const {
  ANECI_CHECK_EQ(cols_, other.rows_);
  SparseMatrix out(rows_, other.cols_);
  static Counter* calls = MetricsRegistry::Global().GetCounter(
      "linalg/spgemm/calls", MetricClass::kDeterministic);
  static Counter* out_nnz = MetricsRegistry::Global().GetCounter(
      "linalg/spgemm/output_nnz", MetricClass::kDeterministic);
  calls->Increment();
  // Gustavson's row-by-row SpGEMM with a dense accumulator per chunk.
  // Phase 1 computes each row chunk into its own buffer (per-row values are
  // produced by the identical serial loop, so chunking never changes them);
  // phase 2 stitches the buffers back in chunk order == row order.
  const int64_t grain = std::max<int64_t>(
      16, (rows_ + 4LL * NumThreads() - 1) / (4LL * NumThreads()));
  const int64_t num_chunks = NumChunks(0, rows_, grain);
  struct ChunkBuf {
    std::vector<int> cols;
    std::vector<double> vals;
  };
  std::vector<ChunkBuf> parts(num_chunks);
  ParallelForChunks(0, rows_, grain, [&](int64_t lo, int64_t hi, int64_t ci) {
    std::vector<double> accum(other.cols_, 0.0);
    std::vector<int> touched;
    touched.reserve(256);
    ChunkBuf& part = parts[ci];
    for (int r = static_cast<int>(lo); r < hi; ++r) {
      touched.clear();
      for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
        const double av = values_[i];
        const int mid = col_idx_[i];
        for (int64_t j = other.row_ptr_[mid]; j < other.row_ptr_[mid + 1];
             ++j) {
          const int c = other.col_idx_[j];
          if (accum[c] == 0.0) touched.push_back(c);
          accum[c] += av * other.values_[j];
        }
      }
      std::sort(touched.begin(), touched.end());
      const size_t row_start = part.cols.size();
      for (int c : touched) {
        if (std::abs(accum[c]) > drop_tol) {
          part.cols.push_back(c);
          part.vals.push_back(accum[c]);
        }
        accum[c] = 0.0;
      }
      // Per-row count; turned into offsets by the prefix sum below.
      out.row_ptr_[r + 1] =
          static_cast<int64_t>(part.cols.size() - row_start);
    }
  });
  for (int r = 0; r < rows_; ++r) out.row_ptr_[r + 1] += out.row_ptr_[r];
  out.col_idx_.reserve(out.row_ptr_[rows_]);
  out.values_.reserve(out.row_ptr_[rows_]);
  for (const ChunkBuf& part : parts) {
    out.col_idx_.insert(out.col_idx_.end(), part.cols.begin(),
                        part.cols.end());
    out.values_.insert(out.values_.end(), part.vals.begin(),
                       part.vals.end());
  }
  out_nnz->Add(static_cast<uint64_t>(out.row_ptr_[rows_]));
  return out;
}

SparseMatrix SparseMatrix::AddScaled(const SparseMatrix& other,
                                     double alpha) const {
  ANECI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  SparseMatrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    int64_t i = row_ptr_[r], j = other.row_ptr_[r];
    const int64_t iend = row_ptr_[r + 1], jend = other.row_ptr_[r + 1];
    while (i < iend || j < jend) {
      int c;
      double v;
      if (j >= jend || (i < iend && col_idx_[i] < other.col_idx_[j])) {
        c = col_idx_[i];
        v = values_[i];
        ++i;
      } else if (i >= iend || other.col_idx_[j] < col_idx_[i]) {
        c = other.col_idx_[j];
        v = alpha * other.values_[j];
        ++j;
      } else {
        c = col_idx_[i];
        v = values_[i] + alpha * other.values_[j];
        ++i;
        ++j;
      }
      if (v != 0.0) {
        out.col_idx_.push_back(c);
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[r + 1] = static_cast<int64_t>(out.col_idx_.size());
  }
  return out;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix out(cols_, rows_);
  std::vector<int64_t> counts(cols_ + 1, 0);
  for (int c : col_idx_) ++counts[c + 1];
  for (int c = 0; c < cols_; ++c) counts[c + 1] += counts[c];
  out.row_ptr_ = counts;
  out.col_idx_.resize(values_.size());
  out.values_.resize(values_.size());
  std::vector<int64_t> next = counts;
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      const int c = col_idx_[i];
      const int64_t pos = next[c]++;
      out.col_idx_[pos] = r;
      out.values_[pos] = values_[i];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::RowNormalizedL1() const {
  SparseMatrix out = *this;
  // Row-parallel: each row rescales its own disjoint value slice.
  ParallelFor(0, rows_, SpmmRowGrain(rows_, nnz(), 1),
              [&](int64_t lo, int64_t hi) {
    for (int r = static_cast<int>(lo); r < hi; ++r) {
      double s = 0.0;
      for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
        s += std::abs(values_[i]);
      if (s > 0.0)
        for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
          out.values_[i] /= s;
    }
  });
  return out;
}

SparseMatrix SparseMatrix::SymmetricallyNormalized() const {
  ANECI_CHECK_EQ(rows_, cols_);
  std::vector<double> dinv_sqrt(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) s += values_[i];
    dinv_sqrt[r] = s > 0.0 ? 1.0 / std::sqrt(s) : 0.0;
  }
  SparseMatrix out = *this;
  for (int r = 0; r < rows_; ++r)
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      out.values_[i] *= dinv_sqrt[r] * dinv_sqrt[col_idx_[i]];
  return out;
}

std::vector<double> SparseMatrix::RowSumsVec() const {
  std::vector<double> s(rows_, 0.0);
  for (int r = 0; r < rows_; ++r)
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) s[r] += values_[i];
  return s;
}

double SparseMatrix::SumAll() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

std::vector<Triplet> SparseMatrix::ToTriplets() const {
  std::vector<Triplet> trips;
  trips.reserve(values_.size());
  for (int r = 0; r < rows_; ++r)
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      trips.push_back({r, col_idx_[i], values_[i]});
  return trips;
}

}  // namespace aneci
