#include "graph/components.h"

#include <algorithm>

namespace aneci {

DegreeStats ComputeDegreeStats(const Graph& graph) {
  DegreeStats stats;
  if (graph.num_nodes() == 0) return stats;
  stats.min = graph.Degree(0);
  double total = 0.0;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    const int d = graph.Degree(i);
    total += d;
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
  }
  stats.mean = total / graph.num_nodes();
  return stats;
}

}  // namespace aneci
