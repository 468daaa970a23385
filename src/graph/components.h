// Basic structural statistics of a graph.
#ifndef ANECI_GRAPH_COMPONENTS_H_
#define ANECI_GRAPH_COMPONENTS_H_

#include "graph/graph.h"

namespace aneci {

struct DegreeStats {
  double mean = 0.0;
  int min = 0;
  int max = 0;
};

DegreeStats ComputeDegreeStats(const Graph& graph);

}  // namespace aneci

#endif  // ANECI_GRAPH_COMPONENTS_H_
