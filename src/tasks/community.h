// Community-detection evaluation (Section VI-D): cluster embeddings with
// k-means++ (or take argmax community membership for AnECI) and score the
// partition with classic modularity.
#ifndef ANECI_TASKS_COMMUNITY_H_
#define ANECI_TASKS_COMMUNITY_H_

#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace aneci {

struct CommunityResult {
  std::vector<int> assignment;
  double modularity = 0.0;
  double nmi_vs_labels = 0.0;  ///< 0 when the graph has no labels.
  int num_communities = 0;
};

/// Clusters the rows of `embedding` into k communities with k-means++ and
/// evaluates modularity on `graph` (the paper's protocol for baselines).
CommunityResult DetectCommunitiesKMeans(const Graph& graph,
                                        const Matrix& embedding, int k,
                                        Rng& rng);

/// Evaluates an explicit soft-membership matrix by argmax assignment (the
/// paper's protocol for AnECI).
CommunityResult DetectCommunitiesArgmax(const Graph& graph,
                                        const Matrix& membership);

}  // namespace aneci

#endif  // ANECI_TASKS_COMMUNITY_H_
