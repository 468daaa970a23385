#include "tasks/community.h"

#include <algorithm>

#include "graph/modularity.h"
#include "linalg/kmeans.h"
#include "tasks/metrics.h"
#include "util/check.h"

namespace aneci {
namespace {

CommunityResult Finish(const Graph& graph, std::vector<int> assignment) {
  CommunityResult result;
  result.modularity = Modularity(graph, assignment);
  if (graph.has_labels())
    result.nmi_vs_labels =
        NormalizedMutualInformation(assignment, graph.labels());
  int k = 0;
  for (int c : assignment) k = std::max(k, c + 1);
  result.num_communities = k;
  result.assignment = std::move(assignment);
  return result;
}

}  // namespace

CommunityResult DetectCommunitiesKMeans(const Graph& graph,
                                        const Matrix& embedding, int k,
                                        Rng& rng) {
  ANECI_CHECK_EQ(embedding.rows(), graph.num_nodes());
  KMeansOptions options;
  options.restarts = 3;
  KMeansResult km = KMeans(embedding, k, rng, options);
  return Finish(graph, std::move(km.assignment));
}

CommunityResult DetectCommunitiesArgmax(const Graph& graph,
                                        const Matrix& membership) {
  ANECI_CHECK_EQ(membership.rows(), graph.num_nodes());
  return Finish(graph, ArgmaxAssignment(membership));
}

}  // namespace aneci
