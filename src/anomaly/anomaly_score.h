// Node anomaly scoring. AnECI scores by the entropy of the soft community
// membership (an outlier straddles communities, so its membership is
// high-entropy); embeddings without a native scoring scheme go through
// IsolationForest, matching the paper's protocol.
#ifndef ANECI_ANOMALY_ANOMALY_SCORE_H_
#define ANECI_ANOMALY_ANOMALY_SCORE_H_

#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace aneci {

/// AScore(i) = -sum_k p_i^k log p_i^k over the membership rows of `p`.
std::vector<double> MembershipEntropyScores(const Matrix& p);

}  // namespace aneci

#endif  // ANECI_ANOMALY_ANOMALY_SCORE_H_
