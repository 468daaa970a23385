// Differentiable operations. Every op returns a new node whose
// requires_grad is the OR of its inputs'; gradient closures skip inputs that
// do not require gradients, so large constant inputs (feature matrices,
// adjacency) never allocate gradient buffers.
#ifndef ANECI_AUTOGRAD_OPS_H_
#define ANECI_AUTOGRAD_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "linalg/sparse.h"

namespace aneci::ag {

/// C = A * B.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

/// C = A * B^T (used by inner-product decoders: sigmoid(P P^T)).
VarPtr MatMulTransB(const VarPtr& a, const VarPtr& b);

/// Y = S * X where S is a constant sparse matrix (GCN propagation).
/// `s` must outlive the backward pass, which computes S^T dY with the
/// kernel backend's SpmmT.
VarPtr SpMM(const SparseMatrix* s, const VarPtr& x);

/// A constant sparse operator S with a set-up check of whether it is
/// bit-symmetric (the symmetric GCN propagation is). SpMMAddBias's backward
/// computes S^T dY as the row-parallel Spmm over S itself when it is,
/// instead of SpmmT's scan of every row of S from every thread, and with
/// SpmmT otherwise. Both sum each output row's terms in ascending source
/// row, so the gradient has the same bits. `s` must outlive the operator.
class SparseOperator {
 public:
  explicit SparseOperator(const SparseMatrix* s);

  const SparseMatrix& matrix() const { return *s_; }
  /// True when S equals S^T bit for bit.
  bool symmetric() const { return symmetric_; }

 private:
  const SparseMatrix* s_;
  bool symmetric_;
};

/// Y = S * X + 1 b^T for a (1 x c) bias row b: one node with the value and
/// gradient bits of AddRowBroadcast(SpMM(&op.matrix(), x), b), without the
/// intermediate S X value and its gradient copy (a GCN layer's
/// propagation). `op` must outlive the backward pass.
VarPtr SpMMAddBias(const SparseOperator& op, const VarPtr& x,
                   const VarPtr& bias);

VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr Hadamard(const VarPtr& a, const VarPtr& b);
VarPtr Scale(const VarPtr& a, double s);

/// Adds a (1 x c) bias row to every row of x (n x c).
VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias);

VarPtr Relu(const VarPtr& x);
VarPtr Exp(const VarPtr& x);
/// Mean over rows -> (1 x c) (DGI's readout).
VarPtr MeanRows(const VarPtr& x);
VarPtr LeakyRelu(const VarPtr& x, double alpha = 0.01);
VarPtr Sigmoid(const VarPtr& x);
VarPtr Tanh(const VarPtr& x);
VarPtr Transpose(const VarPtr& x);

/// Row-wise softmax (Eq. 3: P = softmax(Z)).
VarPtr RowSoftmax(const VarPtr& x);

/// 1x1 node with the sum of all entries.
VarPtr SumAll(const VarPtr& x);

/// 1x1 node with mean of all entries.
VarPtr MeanAll(const VarPtr& x);

/// 1x1 node: sum of squares of all entries (for L2 penalties).
VarPtr SumSquares(const VarPtr& x);

/// Binary cross-entropy between predictions `p` in (0,1) and constant
/// targets `t` in [0,1], summed over entries; clamps p to [eps, 1-eps].
/// Implements Eq. 17 when `p` = sigmoid(P P^T) and `t` = A~.
VarPtr BinaryCrossEntropySum(const VarPtr& p, const Matrix& targets,
                             double eps = 1e-10);

/// Same, but weighting positive-target terms by pos_weight (class-imbalance
/// handling used by GAE on sparse adjacency).
VarPtr WeightedBinaryCrossEntropySum(const VarPtr& p, const Matrix& targets,
                                     double pos_weight, double eps = 1e-10);

/// Softmax + cross-entropy over selected rows against integer labels;
/// returns mean negative log-likelihood (semi-supervised GCN loss).
VarPtr SoftmaxCrossEntropy(const VarPtr& logits, const std::vector<int>& rows,
                           const std::vector<int>& labels);

/// 1x1 node: sum(P (.) (S P)) for constant sparse S — the observed part of
/// the trace-form modularity tr(P^T A~ P) without densifying A~. The
/// forward's S P is kept for the backward, (S + S^T) P, which then computes
/// only S^T P.
VarPtr TraceQuadraticSparse(const SparseMatrix* s, const VarPtr& p);

/// 1x1 node: || P^T k ||^2 for a constant vector k — the rank-1 null-model
/// part of the generalised modularity (tr(P^T kk^T P)).
VarPtr RowWeightedColSumSquares(const VarPtr& p, const std::vector<double>& k);

/// Extracts the given rows as a new node (gradient scatters back).
VarPtr SelectRows(const VarPtr& x, const std::vector<int>& rows);

/// Single-head graph attention aggregation (Velickovic et al., ICLR'18):
/// for every node i with neighbourhood N(i) (given by the constant sparse
/// pattern `adj`, which should include self-loops),
///   e_ij   = LeakyReLU(a_src . h_i + a_dst . h_j, slope)
///   alpha  = softmax_j(e_ij)
///   out_i  = sum_j alpha_ij h_j.
/// `h` is (N x d), `a_src` and `a_dst` are (1 x d) attention vectors.
/// Gradients flow into h, a_src and a_dst.
VarPtr GraphAttention(const SparseMatrix* adj, const VarPtr& h,
                      const VarPtr& a_src, const VarPtr& a_dst,
                      double slope = 0.2);

/// A (node pair, target) sample for sampled reconstruction losses.
struct PairTarget {
  int u;
  int v;
  double target;  ///< In [0, 1].
};

/// An immutable pair list shared by reference count, with its row
/// incidence: for every node row r, each (pair index, other row) of a pair
/// that touches r, in ascending pair order (a pair with u == v lists r
/// twice). Build one per pair list and reuse it across epochs; each loss
/// node holds the handle, not a copy. Converts implicitly from a vector, so
/// callers with a one-off list pass the vector as before.
class PairSet {
 public:
  PairSet();
  PairSet(std::vector<PairTarget> pairs);  // Implicit, see above.

  const std::vector<PairTarget>& pairs() const { return data_->pairs; }
  size_t size() const { return data_->pairs.size(); }

 private:
  friend VarPtr InnerProductPairBce(const VarPtr& p, const PairSet& pairs);

  struct Incidence {
    int pair;   ///< Index into pairs.
    int other;  ///< The pair's other node.
  };
  struct Data {
    std::vector<PairTarget> pairs;
    /// One offset per node row into incidence, plus the end; the rows run
    /// to the largest node index named by a pair.
    std::vector<int64_t> row_ptr;
    std::vector<Incidence> incidence;
  };
  std::shared_ptr<const Data> data_;
};

/// Sum over pairs of BCE(sigmoid(p_u . p_v), target), computed in the
/// numerically stable softplus form. This is the sampled equivalent of
/// BinaryCrossEntropySum(sigmoid(P P^T), A~) used when N^2 is too large.
/// Runs on the thread pool and gives the serial loop's bits at every thread
/// count: each pair's dot product is computed once, the loss sums the
/// per-pair terms in pair order, and the backward builds each gradient row
/// from the row incidence, in pair order (see docs/parallelism.md).
VarPtr InnerProductPairBce(const VarPtr& p, const PairSet& pairs);

}  // namespace aneci::ag

#endif  // ANECI_AUTOGRAD_OPS_H_
