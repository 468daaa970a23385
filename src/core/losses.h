// AnECI's two training losses:
//  - the generalised modularity Q~ of Eq. 13/14 (maximised), computed in the
//    trace form with a rank-1 null model so the B~ matrix is never densified;
//  - the high-order reconstruction loss L_R of Eq. 17, either exact over all
//    N^2 pairs (streamed, no N^2 storage) or over sampled pairs.
#ifndef ANECI_CORE_LOSSES_H_
#define ANECI_CORE_LOSSES_H_

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "linalg/sparse.h"
#include "util/rng.h"

namespace aneci {

/// Q~ as a differentiable scalar given soft memberships `p` and the
/// high-order proximity `proximity` (with generalised degrees k~ and total
/// 2M~ derived from it). Maximise this (the trainer negates it).
ag::VarPtr GeneralizedModularityLoss(const SparseMatrix* proximity,
                                     const ag::VarPtr& p);

/// The paper's alternative adapting factor (Section IV-C4 offers
/// "product or minimum"): Q~ with gamma_{i,j,c} = min(p_ic, p_jc) instead of
/// p_ic * p_jc. The null-model term is computed in O(N log N) per community
/// column via sorted prefix sums. Used by the design-choice ablation bench.
ag::VarPtr GeneralizedModularityMinLoss(const SparseMatrix* proximity,
                                        const ag::VarPtr& p);

/// Exact L_R = sum_ij BCE(sigmoid(p_i . p_j), A~_ij), streamed row by row:
/// O(N^2 K) compute, O(N) extra memory. Suitable up to a few thousand nodes.
ag::VarPtr DenseReconstructionLoss(const SparseMatrix* proximity,
                                   const ag::VarPtr& p);

/// Sampled L_R: all stored entries of A~ as positives plus
/// `negatives_per_node` uniformly sampled unstored pairs per node as zeros.
/// Unbiased stand-in for the dense loss on large graphs.
/// When `binarize` is true stored entries become target 1.0 (first-order
/// adjacency style, used by the baseline autoencoders); otherwise targets
/// carry the stored proximity values (AnECI's Eq. 17).
std::vector<ag::PairTarget> SampleReconstructionPairs(
    const SparseMatrix& proximity, int negatives_per_node, Rng& rng,
    bool binarize = false);

/// The sampled L_R over `pairs`. Pass a PairSet built once per sample to
/// reuse its row incidence across epochs; a vector converts to a fresh one.
ag::VarPtr SampledReconstructionLoss(const ag::VarPtr& p,
                                     const ag::PairSet& pairs);

}  // namespace aneci

#endif  // ANECI_CORE_LOSSES_H_
