#include "autograd/ops.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <utility>

#include "autograd/memory_planner.h"
#include "linalg/kernels/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace aneci::ag {
namespace {

// Creates the output node, named by the static string `op`, and installs
// the backward closure if any input participates in differentiation.
VarPtr MakeOp(const char* op, std::vector<VarPtr> parents, Matrix value,
              std::function<void(Variable&)> backward) {
  bool needs_grad = false;
  for (const VarPtr& p : parents) needs_grad = needs_grad || p->requires_grad();
  auto out = std::make_shared<Variable>(std::move(value), needs_grad);
  out->op = op;
  if (needs_grad) {
    out->parents = std::move(parents);
    out->backward_fn = std::move(backward);
  }
  return out;
}

Matrix Scalar(double v) {
  Matrix m(1, 1);
  m(0, 0) = v;
  return m;
}

// Elements per chunk of the elementwise loops: each element is computed on
// its own, so chunking never changes a bit, and 32k elements amortise the
// ParallelFor dispatch.
constexpr int64_t kElementGrain = int64_t{1} << 15;

// Rows per chunk for row-wise loops over a matrix with `cols` columns.
int64_t RowGrain(int cols) {
  return std::max<int64_t>(1, kElementGrain / std::max(cols, 1));
}

// True when S has the same pattern as S^T and every stored value equals its
// mirror bit for bit. Column indices are sorted and unique within a row, so
// finding each entry's mirror proves the patterns equal.
bool IsBitSymmetric(const SparseMatrix& s) {
  if (s.rows() != s.cols()) return false;
  const std::vector<int64_t>& row_ptr = s.row_ptr();
  const std::vector<int>& col_idx = s.col_idx();
  const std::vector<double>& values = s.values();
  for (int r = 0; r < s.rows(); ++r) {
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const int* begin = col_idx.data() + row_ptr[col_idx[e]];
      const int* end = col_idx.data() + row_ptr[col_idx[e] + 1];
      const int* mirror = std::lower_bound(begin, end, r);
      if (mirror == end || *mirror != r) return false;
      if (std::memcmp(&values[mirror - col_idx.data()], &values[e],
                      sizeof(double)) != 0)
        return false;
    }
  }
  return true;
}

}  // namespace

// Forward values are written into AcquireValue buffers, which come from the
// thread's epoch arena when a trainer installed one. The GEMM/SpMM closures
// call the kernel backend directly, forward and backward, into an acquired
// buffer (beta == 0 fully overwrites, so uninitialised storage is fine)
// instead of going through the allocating free functions.

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  Matrix value = AcquireValue(a->value().rows(), b->value().cols());
  kernels::Active().Gemm(false, false, 1.0, a->value(), b->value(), 0.0,
                         &value);
  return MakeOp("MatMul", {a, b}, std::move(value), [a, b](Variable& self) {
    const kernels::Backend& be = kernels::Active();
    if (a->requires_grad()) {
      Matrix ga = AcquireGradUninit(a->value().rows(), a->value().cols());
      be.Gemm(false, true, 1.0, self.grad(), b->value(), 0.0, &ga);
      a->AccumulateGrad(std::move(ga));
    }
    if (b->requires_grad()) {
      Matrix gb = AcquireGradUninit(b->value().rows(), b->value().cols());
      be.Gemm(true, false, 1.0, a->value(), self.grad(), 0.0, &gb);
      b->AccumulateGrad(std::move(gb));
    }
  });
}

VarPtr MatMulTransB(const VarPtr& a, const VarPtr& b) {
  Matrix value = AcquireValue(a->value().rows(), b->value().rows());
  kernels::Active().Gemm(false, true, 1.0, a->value(), b->value(), 0.0,
                         &value);
  return MakeOp("MatMulTransB", {a, b}, std::move(value),
                [a, b](Variable& self) {
    const kernels::Backend& be = kernels::Active();
    if (a->requires_grad()) {
      Matrix ga = AcquireGradUninit(a->value().rows(), a->value().cols());
      be.Gemm(false, false, 1.0, self.grad(), b->value(), 0.0, &ga);
      a->AccumulateGrad(std::move(ga));
    }
    if (b->requires_grad()) {
      Matrix gb = AcquireGradUninit(b->value().rows(), b->value().cols());
      be.Gemm(true, false, 1.0, self.grad(), a->value(), 0.0, &gb);
      b->AccumulateGrad(std::move(gb));
    }
  });
}

namespace {

Matrix SpmmValue(const SparseMatrix& s, const Matrix& x) {
  Matrix value = AcquireValue(s.rows(), x.cols());
  kernels::Active().Spmm(s, x, &value);
  return value;
}

}  // namespace

VarPtr SpMM(const SparseMatrix* s, const VarPtr& x) {
  ANECI_CHECK(s != nullptr);
  return MakeOp("SpMM", {x}, SpmmValue(*s, x->value()),
                [s, x](Variable& self) {
    if (x->requires_grad()) {
      Matrix gx = AcquireGradUninit(x->value().rows(), x->value().cols());
      kernels::Active().SpmmT(*s, self.grad(), &gx);
      x->AccumulateGrad(std::move(gx));
    }
  });
}

SparseOperator::SparseOperator(const SparseMatrix* s)
    : s_(s), symmetric_(s != nullptr && IsBitSymmetric(*s)) {
  ANECI_CHECK(s != nullptr);
}

VarPtr SpMMAddBias(const SparseOperator& op, const VarPtr& x,
                   const VarPtr& bias) {
  ANECI_CHECK_EQ(bias->value().rows(), 1);
  ANECI_CHECK_EQ(bias->value().cols(), x->value().cols());
  Matrix value = SpmmValue(op.matrix(), x->value());
  const double* b = bias->value().RowPtr(0);
  ParallelFor(0, value.rows(), RowGrain(value.cols()),
              [&](int64_t lo, int64_t hi) {
    for (int r = static_cast<int>(lo); r < hi; ++r) {
      double* row = value.RowPtr(r);
      for (int c = 0; c < value.cols(); ++c) row[c] += b[c];
    }
  });
  const SparseMatrix* s = &op.matrix();
  const bool symmetric = op.symmetric();
  return MakeOp("SpMMAddBias", {x, bias}, std::move(value),
                [s, symmetric, x, bias](Variable& self) {
    const Matrix& dy = self.grad();
    if (bias->requires_grad()) {
      Matrix g = AcquireGradZeroed(1, dy.cols());
      for (int r = 0; r < dy.rows(); ++r) {
        const double* row = dy.RowPtr(r);
        for (int c = 0; c < dy.cols(); ++c) g(0, c) += row[c];
      }
      bias->AccumulateGrad(std::move(g));
    }
    if (x->requires_grad()) {
      Matrix gx = AcquireGradUninit(x->value().rows(), x->value().cols());
      // S^T dY: for a symmetric S that is S dY, whose row-parallel Spmm
      // beats SpmmT's every-row scan with the same bits.
      if (symmetric) {
        kernels::Active().Spmm(*s, dy, &gx);
      } else {
        kernels::Active().SpmmT(*s, dy, &gx);
      }
      x->AccumulateGrad(std::move(gx));
    }
  });
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  Matrix value = AcquireValueCopy(a->value());
  value += b->value();
  return MakeOp("Add", {a, b}, std::move(value), [a, b](Variable& self) {
    if (a->requires_grad()) a->AccumulateGrad(AcquireGradCopy(self.grad()));
    if (b->requires_grad()) b->AccumulateGrad(AcquireGradCopy(self.grad()));
  });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  Matrix value = AcquireValueCopy(a->value());
  value -= b->value();
  return MakeOp("Sub", {a, b}, std::move(value), [a, b](Variable& self) {
    if (a->requires_grad()) a->AccumulateGrad(AcquireGradCopy(self.grad()));
    if (b->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g *= -1.0;
      b->AccumulateGrad(std::move(g));
    }
  });
}

VarPtr Hadamard(const VarPtr& a, const VarPtr& b) {
  Matrix value = AcquireValueCopy(a->value());
  value.HadamardInPlace(b->value());
  return MakeOp("Hadamard", {a, b}, std::move(value),
                [a, b](Variable& self) {
    if (a->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g.HadamardInPlace(b->value());
      a->AccumulateGrad(std::move(g));
    }
    if (b->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g.HadamardInPlace(a->value());
      b->AccumulateGrad(std::move(g));
    }
  });
}

VarPtr Scale(const VarPtr& a, double s) {
  Matrix value = AcquireValueCopy(a->value());
  value *= s;
  return MakeOp("Scale", {a}, std::move(value), [a, s](Variable& self) {
    if (a->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g *= s;
      a->AccumulateGrad(std::move(g));
    }
  });
}

VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias) {
  ANECI_CHECK_EQ(bias->value().rows(), 1);
  ANECI_CHECK_EQ(bias->value().cols(), x->value().cols());
  Matrix value = AcquireValue(x->value().rows(), x->value().cols());
  const double* b = bias->value().RowPtr(0);
  for (int r = 0; r < value.rows(); ++r) {
    const double* in = x->value().RowPtr(r);
    double* row = value.RowPtr(r);
    for (int c = 0; c < value.cols(); ++c) row[c] = in[c] + b[c];
  }
  return MakeOp("AddRowBroadcast", {x, bias}, std::move(value),
                [x, bias](Variable& self) {
    if (x->requires_grad()) x->AccumulateGrad(AcquireGradCopy(self.grad()));
    if (bias->requires_grad()) {
      Matrix g = AcquireGradZeroed(1, self.grad().cols());
      for (int r = 0; r < self.grad().rows(); ++r) {
        const double* row = self.grad().RowPtr(r);
        for (int c = 0; c < self.grad().cols(); ++c) g(0, c) += row[c];
      }
      bias->AccumulateGrad(std::move(g));
    }
  });
}

namespace {

// out[i] = f(x[i]) in one pass over x; f is inlined, not called through a
// std::function per element.
template <typename F>
Matrix MapValues(const Matrix& x, F f) {
  Matrix out = AcquireValue(x.rows(), x.cols());
  const double* in = x.data();
  double* o = out.data();
  ParallelFor(0, x.size(), kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = f(in[i]);
  });
  return out;
}

}  // namespace

VarPtr Relu(const VarPtr& x) {
  Matrix value =
      MapValues(x->value(), [](double v) { return v > 0.0 ? v : 0.0; });
  return MakeOp("Relu", {x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    for (int64_t i = 0; i < g.size(); ++i)
      if (x->value().data()[i] <= 0.0) g.data()[i] = 0.0;
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr Exp(const VarPtr& x) {
  Matrix value = MapValues(x->value(), [](double v) { return std::exp(v); });
  return MakeOp("Exp", {x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    g.HadamardInPlace(self.value());
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr MeanRows(const VarPtr& x) {
  const int n = x->value().rows(), c = x->value().cols();
  ANECI_CHECK_GT(n, 0);
  Matrix value(1, c);
  for (int r = 0; r < n; ++r) {
    const double* row = x->value().RowPtr(r);
    for (int j = 0; j < c; ++j) value(0, j) += row[j];
  }
  for (int j = 0; j < c; ++j) value(0, j) /= n;
  return MakeOp("MeanRows", {x}, std::move(value), [x, n](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix dx = AcquireGradUninit(x->value().rows(), x->value().cols());
    const double* g = self.grad().RowPtr(0);
    for (int r = 0; r < dx.rows(); ++r) {
      double* row = dx.RowPtr(r);
      for (int j = 0; j < dx.cols(); ++j) row[j] = g[j] / n;
    }
    x->AccumulateGrad(std::move(dx));
  });
}

VarPtr LeakyRelu(const VarPtr& x, double alpha) {
  // v > 0 ? v : alpha * v, written as a factor lookup so the compiler emits
  // no data-dependent branch. 1.0 * v == v, so the bits are unchanged.
  const double factor[2] = {alpha, 1.0};
  Matrix value = MapValues(
      x->value(), [&factor](double v) { return factor[v > 0.0] * v; });
  return MakeOp("LeakyRelu", {x}, std::move(value),
                [x, alpha](Variable& self) {
    if (!x->requires_grad()) return;
    const double dfactor[2] = {1.0, alpha};
    const double* dy = self.grad().data();
    const double* in = x->value().data();
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    double* out = g.data();
    ParallelFor(0, g.size(), kElementGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) out[i] = dy[i] * dfactor[in[i] <= 0.0];
    });
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr Sigmoid(const VarPtr& x) {
  Matrix value = MapValues(
      x->value(), [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  return MakeOp("Sigmoid", {x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    const double* y = self.value().data();
    for (int64_t i = 0; i < g.size(); ++i) g.data()[i] *= y[i] * (1.0 - y[i]);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr Tanh(const VarPtr& x) {
  Matrix value = MapValues(x->value(), [](double v) { return std::tanh(v); });
  return MakeOp("Tanh", {x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    const double* y = self.value().data();
    for (int64_t i = 0; i < g.size(); ++i) g.data()[i] *= 1.0 - y[i] * y[i];
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr Transpose(const VarPtr& x) {
  Matrix value = aneci::Transpose(x->value());
  return MakeOp("Transpose", {x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    const Matrix& dy = self.grad();
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    for (int r = 0; r < g.rows(); ++r)
      for (int c = 0; c < g.cols(); ++c) g(r, c) = dy(c, r);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr RowSoftmax(const VarPtr& x) {
  // aneci::RowSoftmax's per-row loop, writing into an AcquireValue buffer;
  // rows are independent, so the chunking never changes a bit.
  const Matrix& in = x->value();
  Matrix value = AcquireValue(in.rows(), in.cols());
  ParallelFor(0, in.rows(), RowGrain(in.cols()), [&](int64_t lo, int64_t hi) {
    for (int r = static_cast<int>(lo); r < hi; ++r) {
      const double* row = in.RowPtr(r);
      double* o = value.RowPtr(r);
      double mx = row[0];
      for (int c = 1; c < in.cols(); ++c) mx = std::max(mx, row[c]);
      double sum = 0.0;
      for (int c = 0; c < in.cols(); ++c) {
        o[c] = std::exp(row[c] - mx);
        sum += o[c];
      }
      for (int c = 0; c < in.cols(); ++c) o[c] /= sum;
    }
  });
  return MakeOp("RowSoftmax", {x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    // dx_row = y (.) (dy - (dy . y)).
    const Matrix& y = self.value();
    const Matrix& dy = self.grad();
    Matrix dx = AcquireGradUninit(y.rows(), y.cols());
    ParallelFor(0, y.rows(), RowGrain(y.cols()), [&](int64_t lo, int64_t hi) {
      for (int r = static_cast<int>(lo); r < hi; ++r) {
        const double* yr = y.RowPtr(r);
        const double* dyr = dy.RowPtr(r);
        double dot = 0.0;
        for (int c = 0; c < y.cols(); ++c) dot += dyr[c] * yr[c];
        double* dxr = dx.RowPtr(r);
        for (int c = 0; c < y.cols(); ++c) dxr[c] = yr[c] * (dyr[c] - dot);
      }
    });
    x->AccumulateGrad(std::move(dx));
  });
}

VarPtr SumAll(const VarPtr& x) {
  return MakeOp("SumAll", {x}, Scalar(x->value().Sum()),
                [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    g.Fill(self.grad()(0, 0));
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr MeanAll(const VarPtr& x) {
  const double inv = 1.0 / static_cast<double>(x->value().size());
  return MakeOp("MeanAll", {x}, Scalar(x->value().Sum() * inv),
                [x, inv](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    g.Fill(self.grad()(0, 0) * inv);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr SumSquares(const VarPtr& x) {
  double s = 0.0;
  for (int64_t i = 0; i < x->value().size(); ++i) {
    const double v = x->value().data()[i];
    s += v * v;
  }
  return MakeOp("SumSquares", {x}, Scalar(s), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(x->value());
    g *= 2.0 * self.grad()(0, 0);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr BinaryCrossEntropySum(const VarPtr& p, const Matrix& targets,
                             double eps) {
  return WeightedBinaryCrossEntropySum(p, targets, 1.0, eps);
}

VarPtr WeightedBinaryCrossEntropySum(const VarPtr& p, const Matrix& targets,
                                     double pos_weight, double eps) {
  ANECI_CHECK(p->value().rows() == targets.rows() &&
              p->value().cols() == targets.cols());
  const int64_t n = p->value().size();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double pv = std::clamp(p->value().data()[i], eps, 1.0 - eps);
    const double t = targets.data()[i];
    loss -= pos_weight * t * std::log(pv) + (1.0 - t) * std::log(1.0 - pv);
  }
  // The closure must not dangle: copy targets.
  Matrix t_copy = targets;
  return MakeOp("WeightedBinaryCrossEntropySum", {p}, Scalar(loss),
                [p, t_copy = std::move(t_copy), pos_weight, eps](Variable& self) {
                  if (!p->requires_grad()) return;
                  const double g = self.grad()(0, 0);
                  Matrix dp =
                      AcquireGradUninit(p->value().rows(), p->value().cols());
                  for (int64_t i = 0; i < dp.size(); ++i) {
                    const double pv =
                        std::clamp(p->value().data()[i], eps, 1.0 - eps);
                    const double t = t_copy.data()[i];
                    dp.data()[i] =
                        g * (-pos_weight * t / pv + (1.0 - t) / (1.0 - pv));
                  }
                  p->AccumulateGrad(std::move(dp));
                });
}

VarPtr SoftmaxCrossEntropy(const VarPtr& logits, const std::vector<int>& rows,
                           const std::vector<int>& labels) {
  ANECI_CHECK_EQ(rows.size(), labels.size());
  ANECI_CHECK(!rows.empty());
  const Matrix& x = logits->value();
  const int c = x.cols();
  // Forward: mean NLL over the selected rows.
  double loss = 0.0;
  Matrix probs(static_cast<int>(rows.size()), c);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* in = x.RowPtr(rows[i]);
    double mx = in[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, in[j]);
    double sum = 0.0;
    double* pr = probs.RowPtr(static_cast<int>(i));
    for (int j = 0; j < c; ++j) {
      pr[j] = std::exp(in[j] - mx);
      sum += pr[j];
    }
    for (int j = 0; j < c; ++j) pr[j] /= sum;
    ANECI_CHECK(labels[i] >= 0 && labels[i] < c);
    loss -= std::log(std::max(pr[labels[i]], 1e-12));
  }
  loss /= static_cast<double>(rows.size());
  return MakeOp(
      "SoftmaxCrossEntropy", {logits}, Scalar(loss),
      [logits, rows, labels, probs = std::move(probs)](Variable& self) {
        if (!logits->requires_grad()) return;
        const double g = self.grad()(0, 0) / static_cast<double>(rows.size());
        Matrix dx =
            AcquireGradZeroed(logits->value().rows(), logits->value().cols());
        for (size_t i = 0; i < rows.size(); ++i) {
          const double* pr = probs.RowPtr(static_cast<int>(i));
          double* dr = dx.RowPtr(rows[i]);
          for (int j = 0; j < dx.cols(); ++j) dr[j] += g * pr[j];
          dr[labels[i]] -= g;
        }
        logits->AccumulateGrad(std::move(dx));
      });
}

VarPtr TraceQuadraticSparse(const SparseMatrix* s, const VarPtr& p) {
  ANECI_CHECK(s != nullptr);
  ANECI_CHECK_EQ(s->cols(), p->value().rows());
  Matrix sp = SpmmValue(*s, p->value());
  double f = 0.0;
  for (int64_t i = 0; i < sp.size(); ++i)
    f += sp.data()[i] * p->value().data()[i];
  VarPtr out = MakeOp("TraceQuadraticSparse", {p}, Scalar(f),
                      [s, p](Variable& self) {
    if (!p->requires_grad()) return;
    const double g = self.grad()(0, 0);
    // d/dP [sum(P (.) SP)] = (S + S^T) P, with S P kept from the forward.
    // S^T P + S P has the bits of S P + S^T P: addition commutes.
    Matrix d = AcquireGradUninit(p->value().rows(), p->value().cols());
    kernels::Active().SpmmT(*s, p->value(), &d);
    d += self.saved;
    d *= g;
    p->AccumulateGrad(std::move(d));
  });
  if (p->requires_grad()) {
    out->saved = std::move(sp);
  } else {
    ReleaseValue(std::move(sp));
  }
  return out;
}

VarPtr RowWeightedColSumSquares(const VarPtr& p, const std::vector<double>& k) {
  ANECI_CHECK_EQ(static_cast<int>(k.size()), p->value().rows());
  const int cols = p->value().cols();
  std::vector<double> v(cols, 0.0);  // v = P^T k.
  for (int r = 0; r < p->value().rows(); ++r) {
    const double* row = p->value().RowPtr(r);
    for (int c = 0; c < cols; ++c) v[c] += k[r] * row[c];
  }
  double f = 0.0;
  for (double x : v) f += x * x;
  return MakeOp("RowWeightedColSumSquares", {p}, Scalar(f),
                [p, k, v](Variable& self) {
    if (!p->requires_grad()) return;
    const double g = self.grad()(0, 0);
    Matrix d = AcquireGradUninit(p->value().rows(), p->value().cols());
    for (int r = 0; r < d.rows(); ++r) {
      double* row = d.RowPtr(r);
      for (int c = 0; c < d.cols(); ++c) row[c] = g * 2.0 * k[r] * v[c];
    }
    p->AccumulateGrad(std::move(d));
  });
}

VarPtr SelectRows(const VarPtr& x, const std::vector<int>& rows) {
  Matrix value = x->value().SelectRows(rows);
  return MakeOp("SelectRows", {x}, std::move(value),
                [x, rows](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix dx = AcquireGradZeroed(x->value().rows(), x->value().cols());
    for (size_t i = 0; i < rows.size(); ++i) {
      const double* g = self.grad().RowPtr(static_cast<int>(i));
      double* d = dx.RowPtr(rows[i]);
      for (int c = 0; c < dx.cols(); ++c) d[c] += g[c];
    }
    x->AccumulateGrad(std::move(dx));
  });
}

VarPtr GraphAttention(const SparseMatrix* adj, const VarPtr& h,
                      const VarPtr& a_src, const VarPtr& a_dst, double slope) {
  ANECI_CHECK(adj != nullptr);
  const Matrix& hm = h->value();
  const int n = hm.rows(), d = hm.cols();
  ANECI_CHECK_EQ(adj->rows(), n);
  ANECI_CHECK_EQ(adj->cols(), n);
  ANECI_CHECK(a_src->value().rows() == 1 && a_src->value().cols() == d);
  ANECI_CHECK(a_dst->value().rows() == 1 && a_dst->value().cols() == d);

  // Per-node attention projections s_i = a_src . h_i, t_i = a_dst . h_i.
  std::vector<double> s(n, 0.0), t(n, 0.0);
  const double* as = a_src->value().RowPtr(0);
  const double* ad = a_dst->value().RowPtr(0);
  for (int i = 0; i < n; ++i) {
    const double* hi = hm.RowPtr(i);
    for (int c = 0; c < d; ++c) {
      s[i] += as[c] * hi[c];
      t[i] += ad[c] * hi[c];
    }
  }

  // Attention weights per stored edge, row-softmaxed.
  std::vector<double> alpha(adj->nnz(), 0.0);
  Matrix out(n, d);
  for (int i = 0; i < n; ++i) {
    const int64_t begin = adj->row_ptr()[i], end = adj->row_ptr()[i + 1];
    if (begin == end) continue;
    double mx = -1e300;
    for (int64_t e = begin; e < end; ++e) {
      const double raw = s[i] + t[adj->col_idx()[e]];
      alpha[e] = raw > 0.0 ? raw : slope * raw;  // LeakyReLU.
      mx = std::max(mx, alpha[e]);
    }
    double sum = 0.0;
    for (int64_t e = begin; e < end; ++e) {
      alpha[e] = std::exp(alpha[e] - mx);
      sum += alpha[e];
    }
    double* oi = out.RowPtr(i);
    for (int64_t e = begin; e < end; ++e) {
      alpha[e] /= sum;
      const double* hj = hm.RowPtr(adj->col_idx()[e]);
      for (int c = 0; c < d; ++c) oi[c] += alpha[e] * hj[c];
    }
  }

  return MakeOp(
      "GraphAttention", {h, a_src, a_dst}, std::move(out),
      [adj, h, a_src, a_dst, slope, s = std::move(s), t = std::move(t),
       alpha = std::move(alpha)](Variable& self) {
        const Matrix& hm = h->value();
        const int n = hm.rows(), d = hm.cols();
        const Matrix& dout = self.grad();
        const double* as = a_src->value().RowPtr(0);
        const double* ad = a_dst->value().RowPtr(0);

        Matrix dh = AcquireGradZeroed(n, d);
        std::vector<double> ds(n, 0.0), dt(n, 0.0);

        for (int i = 0; i < n; ++i) {
          const int64_t begin = adj->row_ptr()[i], end = adj->row_ptr()[i + 1];
          if (begin == end) continue;
          const double* gi = dout.RowPtr(i);
          // dalpha_ij = dout_i . h_j ; dh_j += alpha_ij * dout_i.
          double weighted = 0.0;  // sum_k alpha_ik dalpha_ik for the softmax.
          std::vector<double> dalpha(end - begin);
          for (int64_t e = begin; e < end; ++e) {
            const int j = adj->col_idx()[e];
            const double* hj = hm.RowPtr(j);
            double da = 0.0;
            for (int c = 0; c < d; ++c) da += gi[c] * hj[c];
            dalpha[e - begin] = da;
            weighted += alpha[e] * da;
            double* dhj = dh.RowPtr(j);
            for (int c = 0; c < d; ++c) dhj[c] += alpha[e] * gi[c];
          }
          for (int64_t e = begin; e < end; ++e) {
            const int j = adj->col_idx()[e];
            // Softmax jacobian, then the LeakyReLU derivative.
            double de = alpha[e] * (dalpha[e - begin] - weighted);
            const double raw = s[i] + t[j];
            if (raw <= 0.0) de *= slope;
            ds[i] += de;
            dt[j] += de;
          }
        }

        // s_i = a_src . h_i and t_i = a_dst . h_i contributions.
        Matrix da_src = AcquireGradZeroed(1, d);
        Matrix da_dst = AcquireGradZeroed(1, d);
        for (int i = 0; i < n; ++i) {
          const double* hi = hm.RowPtr(i);
          double* dhi = dh.RowPtr(i);
          for (int c = 0; c < d; ++c) {
            dhi[c] += ds[i] * as[c] + dt[i] * ad[c];
            da_src(0, c) += ds[i] * hi[c];
            da_dst(0, c) += dt[i] * hi[c];
          }
        }
        if (h->requires_grad()) h->AccumulateGrad(std::move(dh));
        if (a_src->requires_grad()) a_src->AccumulateGrad(std::move(da_src));
        if (a_dst->requires_grad()) a_dst->AccumulateGrad(std::move(da_dst));
      });
}

namespace {

// Fixed chunk sizes of the pair loss, a few hundred microseconds of work
// per chunk at the Pubmed analogue's shapes. Chunks depend only on the
// range, never on the thread count.
constexpr int64_t kPairGrain = 4096;
constexpr int64_t kPairRowGrain = 256;
// Under an epoch arena the per-pair scratch arrays are rounded up to a
// multiple of this many entries, so a resample, whose pair count moves by a
// few, draws the same buffers. The incidence's capacity is rounded the same
// way.
constexpr int64_t kPairScratchRows = int64_t{1} << 16;

}  // namespace

PairSet::PairSet() : PairSet(std::vector<PairTarget>()) {}

PairSet::PairSet(std::vector<PairTarget> pairs) {
  auto data = std::make_shared<Data>();
  data->pairs = std::move(pairs);
  const std::vector<PairTarget>& list = data->pairs;
  const int64_t count = static_cast<int64_t>(list.size());
  ANECI_CHECK_LE(count, INT_MAX);
  int rows = 0;
  for (const PairTarget& pt : list) {
    ANECI_CHECK(pt.u >= 0 && pt.v >= 0);
    rows = std::max(rows, std::max(pt.u, pt.v) + 1);
  }
  // Counting sort by row; scanning the pairs in order keeps each row's
  // entries in ascending pair order.
  std::vector<int64_t>& row_ptr = data->row_ptr;
  row_ptr.assign(rows + 1, 0);
  for (const PairTarget& pt : list) {
    ++row_ptr[pt.u + 1];
    ++row_ptr[pt.v + 1];
  }
  for (int r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  std::vector<int64_t> next(row_ptr.begin(), row_ptr.end() - 1);
  // Capacity in whole blocks: a resample's pair count moves by a few, so
  // its incidence then fits in the block the previous set's freed.
  data->incidence.reserve((2 * count + kPairScratchRows - 1) /
                          kPairScratchRows * kPairScratchRows);
  data->incidence.resize(2 * count);
  for (int64_t i = 0; i < count; ++i) {
    const int pair = static_cast<int>(i);
    data->incidence[next[list[i].u]++] = {pair, list[i].v};
    data->incidence[next[list[i].v]++] = {pair, list[i].u};
  }
  data_ = std::move(data);
}

VarPtr InnerProductPairBce(const VarPtr& p, const PairSet& pairs) {
  const Matrix& pm = p->value();
  const PairSet::Data& set = *pairs.data_;
  // Rows past the incidence's last row appear in no pair.
  const int set_rows = static_cast<int>(set.row_ptr.size()) - 1;
  ANECI_CHECK_LE(set_rows, pm.rows());
  const int k = pm.cols();
  const std::vector<PairTarget>& list = set.pairs;
  const int64_t count = static_cast<int64_t>(list.size());
  const bool needs_grad = p->requires_grad();
  // Per pair: the loss term BCE(sigmoid(d), t) = softplus(d) - t * d and,
  // for the backward, its derivative in d, sigmoid(d) - t.
  const int64_t scratch_rows =
      EpochArena::Current() == nullptr
          ? count
          : (count + kPairScratchRows - 1) / kPairScratchRows *
                kPairScratchRows;
  ANECI_CHECK_LE(scratch_rows, INT_MAX);
  Matrix terms = AcquireValue(static_cast<int>(scratch_rows), 1);
  Matrix residuals =
      AcquireValue(needs_grad ? static_cast<int>(scratch_rows) : 0, 1);
  ParallelFor(0, count, kPairGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const PairTarget& pt = list[i];
      const double* a = pm.RowPtr(pt.u);
      const double* b = pm.RowPtr(pt.v);
      double d = 0.0;
      for (int c = 0; c < k; ++c) d += a[c] * b[c];
      // softplus(d) = log(1 + e^d), overflow-safe.
      const double softplus = d > 30.0 ? d : std::log1p(std::exp(d));
      terms.data()[i] = softplus - pt.target * d;
      if (needs_grad)
        residuals.data()[i] = 1.0 / (1.0 + std::exp(-d)) - pt.target;
    }
  });
  double loss = 0.0;
  for (int64_t i = 0; i < count; ++i) loss += terms.data()[i];
  ReleaseValue(std::move(terms));
  VarPtr out = MakeOp(
      "InnerProductPairBce", {p}, Scalar(loss),
      [p, data = pairs.data_, set_rows](Variable& self) {
        if (!p->requires_grad()) return;
        const double g = self.grad()(0, 0);
        const double* residuals = self.saved.data();
        const Matrix& pm = p->value();
        const int k = pm.cols();
        Matrix dp = AcquireGradUninit(pm.rows(), k);
        // Row r gets coeff * p_other for each incident pair, in pair order:
        // the additions the serial pair loop made, in the same order.
        ParallelFor(0, pm.rows(), kPairRowGrain, [&](int64_t lo, int64_t hi) {
          for (int r = static_cast<int>(lo); r < hi; ++r) {
            double* dr = dp.RowPtr(r);
            std::fill(dr, dr + k, 0.0);
            if (r >= set_rows) continue;
            for (int64_t e = data->row_ptr[r]; e < data->row_ptr[r + 1]; ++e) {
              const PairSet::Incidence& in = data->incidence[e];
              const double coeff = g * residuals[in.pair];
              const double* o = pm.RowPtr(in.other);
              for (int c = 0; c < k; ++c) dr[c] += coeff * o[c];
            }
          }
        });
        p->AccumulateGrad(std::move(dp));
      });
  out->saved = std::move(residuals);
  return out;
}

}  // namespace aneci::ag
