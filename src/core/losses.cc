#include "core/losses.h"

#include <cmath>
#include <utility>

#include "autograd/memory_planner.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

VarPtr GeneralizedModularityLoss(const SparseMatrix* proximity,
                                 const ag::VarPtr& p) {
  ANECI_CHECK(proximity != nullptr);
  ANECI_CHECK_EQ(proximity->rows(), p->value().rows());
  const double two_m = proximity->SumAll();
  ANECI_CHECK_GT(two_m, 0.0);
  const std::vector<double> degrees = proximity->RowSumsVec();

  // Q~ = [ sum(P (.) A~P) - ||P^T k~||^2 / (2M~) ] / (2M~).
  VarPtr observed = ag::TraceQuadraticSparse(proximity, p);
  VarPtr null_model = ag::RowWeightedColSumSquares(p, degrees);
  return ag::Scale(
      ag::Sub(observed, ag::Scale(null_model, 1.0 / two_m)), 1.0 / two_m);
}

ag::VarPtr GeneralizedModularityMinLoss(const SparseMatrix* proximity,
                                        const ag::VarPtr& p) {
  ANECI_CHECK(proximity != nullptr);
  const Matrix& pm = p->value();
  const int n = pm.rows(), k = pm.cols();
  ANECI_CHECK_EQ(proximity->rows(), n);
  const double two_m = proximity->SumAll();
  ANECI_CHECK_GT(two_m, 0.0);
  const std::vector<double> deg = proximity->RowSumsVec();

  // Computes value and gradient together; the closure re-derives the
  // gradient from the stored primal (both passes are cheap).
  auto compute = [proximity, two_m, deg](const Matrix& pm, Matrix* grad) {
    const int n = pm.rows(), k = pm.cols();
    double observed = 0.0;
    // Observed term: sum over stored entries of A~ of sum_c min(P_ic, P_jc).
    for (int i = 0; i < n; ++i) {
      for (int64_t e = proximity->row_ptr()[i]; e < proximity->row_ptr()[i + 1];
           ++e) {
        const int j = proximity->col_idx()[e];
        const double a = proximity->values()[e];
        const double* pi = pm.RowPtr(i);
        const double* pj = pm.RowPtr(j);
        for (int c = 0; c < k; ++c) {
          observed += a * std::min(pi[c], pj[c]);
          if (grad != nullptr) {
            if (pi[c] < pj[c]) {
              (*grad)(i, c) += a;
            } else if (pj[c] < pi[c]) {
              (*grad)(j, c) += a;
            } else {
              (*grad)(i, c) += 0.5 * a;
              (*grad)(j, c) += 0.5 * a;
            }
          }
        }
      }
    }
    // Null model: sum_c sum_ij k_i k_j min(v_i, v_j) with v = P[:, c].
    // Sorting v ascending: the pair (i, j) contributes v of the earlier
    // index, so node at sorted position t contributes
    // v_t * k_t * (k_t + 2 * sum_{s > t} k_s).
    double null_model = 0.0;
    std::vector<int> order(n);
    for (int c = 0; c < k; ++c) {
      for (int i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return pm(a, c) < pm(b, c);
      });
      double suffix = 0.0;
      for (int i : order) suffix += deg[i];
      for (int t = 0; t < n; ++t) {
        const int i = order[t];
        suffix -= deg[i];
        const double coeff = deg[i] * (deg[i] + 2.0 * suffix);
        null_model += pm(i, c) * coeff;
        if (grad != nullptr) (*grad)(i, c) -= coeff / two_m;
      }
    }
    return (observed - null_model / two_m) / two_m;
  };

  Matrix scalar(1, 1);
  scalar(0, 0) = compute(pm, nullptr);
  auto out =
      std::make_shared<ag::Variable>(std::move(scalar), p->requires_grad());
  out->op = "GeneralizedModularityMinLoss";
  if (!p->requires_grad()) return out;
  out->parents = {p};
  out->backward_fn = [p, compute, two_m](ag::Variable& self) {
    Matrix grad = ag::AcquireGradZeroed(p->value().rows(), p->value().cols());
    compute(p->value(), &grad);
    grad *= self.grad()(0, 0) / two_m;
    p->AccumulateGrad(std::move(grad));
  };
  return out;
}

namespace {

double Softplus(double x) { return x > 30.0 ? x : std::log1p(std::exp(x)); }

}  // namespace

VarPtr DenseReconstructionLoss(const SparseMatrix* proximity,
                               const ag::VarPtr& p) {
  ANECI_CHECK(proximity != nullptr);
  const Matrix& pm = p->value();
  const int n = pm.rows(), k = pm.cols();
  ANECI_CHECK_EQ(proximity->rows(), n);
  ANECI_CHECK_EQ(proximity->cols(), n);

  // Forward: stream row i of D = P P^T; targets come from the sparse A~ row.
  double loss = 0.0;
  std::vector<double> drow(n);
  for (int i = 0; i < n; ++i) {
    const double* pi = pm.RowPtr(i);
    for (int j = 0; j < n; ++j) {
      const double* pj = pm.RowPtr(j);
      double d = 0.0;
      for (int c = 0; c < k; ++c) d += pi[c] * pj[c];
      drow[j] = d;
      loss += Softplus(d);  // BCE(sigmoid(d), t) = softplus(d) - t*d.
    }
    for (int64_t e = proximity->row_ptr()[i]; e < proximity->row_ptr()[i + 1];
         ++e) {
      loss -= proximity->values()[e] * drow[proximity->col_idx()[e]];
    }
  }

  Matrix scalar(1, 1);
  scalar(0, 0) = loss;
  auto out = std::make_shared<ag::Variable>(std::move(scalar),
                                            p->requires_grad());
  out->op = "DenseReconstructionLoss";
  if (!p->requires_grad()) return out;
  out->parents = {p};
  out->backward_fn = [p, proximity](ag::Variable& self) {
    const double g = self.grad()(0, 0);
    const Matrix& pm = p->value();
    const int n = pm.rows(), k = pm.cols();
    Matrix dp = ag::AcquireGradZeroed(n, k);
    std::vector<double> coeff(n);
    for (int i = 0; i < n; ++i) {
      const double* pi = pm.RowPtr(i);
      // For ordered pair (i, j): dL/dd_ij = sigmoid(d_ij) - t_ij =: coeff_j,
      // and d_ij = p_i . p_j, so dP_i += coeff_j P_j and dP_j += coeff_j P_i.
      for (int j = 0; j < n; ++j) {
        const double* pj = pm.RowPtr(j);
        double d = 0.0;
        for (int c = 0; c < k; ++c) d += pi[c] * pj[c];
        coeff[j] = 1.0 / (1.0 + std::exp(-d));
      }
      for (int64_t e = proximity->row_ptr()[i];
           e < proximity->row_ptr()[i + 1]; ++e) {
        coeff[proximity->col_idx()[e]] -= proximity->values()[e];
      }
      double* di = dp.RowPtr(i);
      for (int j = 0; j < n; ++j) {
        const double w = g * coeff[j];
        if (w == 0.0) continue;
        const double* pj = pm.RowPtr(j);
        double* dj = dp.RowPtr(j);
        for (int c = 0; c < k; ++c) {
          di[c] += w * pj[c];
          dj[c] += w * pi[c];
        }
      }
    }
    p->AccumulateGrad(std::move(dp));
  };
  return out;
}

std::vector<ag::PairTarget> SampleReconstructionPairs(
    const SparseMatrix& proximity, int negatives_per_node, Rng& rng,
    bool binarize) {
  std::vector<ag::PairTarget> pairs;
  const int n = proximity.rows();
  pairs.reserve(proximity.nnz() + static_cast<int64_t>(n) * negatives_per_node);
  for (int i = 0; i < n; ++i) {
    for (int64_t e = proximity.row_ptr()[i]; e < proximity.row_ptr()[i + 1];
         ++e) {
      pairs.push_back({i, proximity.col_idx()[e],
                       binarize ? 1.0 : proximity.values()[e]});
    }
    for (int s = 0; s < negatives_per_node; ++s) {
      const int j = static_cast<int>(rng.NextInt(n));
      if (proximity.At(i, j) != 0.0) continue;  // Keep negatives clean.
      pairs.push_back({i, j, 0.0});
    }
  }
  return pairs;
}

VarPtr SampledReconstructionLoss(const ag::VarPtr& p,
                                 const ag::PairSet& pairs) {
  return ag::InnerProductPairBce(p, pairs);
}

}  // namespace aneci
