#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graph/components.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "util/rng.h"

namespace aneci {
namespace {

Graph Triangle() { return Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(Graph, FromEdgesNormalisesAndDedupes) {
  Graph g = Graph::FromEdges(4, {{1, 0}, {0, 1}, {2, 2}, {3, 2}});
  EXPECT_EQ(g.num_edges(), 2);  // (0,1) deduped, self-loop dropped.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST(Graph, AddRemoveEdge) {
  Graph g(3);
  EXPECT_TRUE(g.AddEdge(0, 2));
  EXPECT_FALSE(g.AddEdge(2, 0));  // Duplicate.
  EXPECT_FALSE(g.AddEdge(1, 1));  // Self-loop refused.
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.RemoveEdge(2, 0));
  EXPECT_FALSE(g.RemoveEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, NeighborsStaySortedAfterMutation) {
  Graph g(5);
  g.AddEdge(2, 4);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  const std::vector<int>& nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  g.RemoveEdge(2, 3);
  EXPECT_EQ(g.Neighbors(2).size(), 2u);
}

TEST(Graph, DegreeMatchesNeighbors) {
  Graph g = Triangle();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(g.Degree(i), 2);
}

TEST(Graph, AdjacencySymmetricWithOptionalSelfLoops) {
  Graph g = Triangle();
  SparseMatrix a = g.Adjacency(false);
  EXPECT_EQ(a.nnz(), 6);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 0.0);
  SparseMatrix asl = g.Adjacency(true);
  EXPECT_EQ(asl.nnz(), 9);
  EXPECT_DOUBLE_EQ(asl.At(1, 1), 1.0);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(asl.At(i, j), asl.At(j, i));
}

TEST(Graph, NormalizedAdjacencyRowsOfTriangle) {
  // Triangle + self-loops: all degrees 3 => every entry 1/3.
  SparseMatrix n = Triangle().NormalizedAdjacency();
  for (double v : n.values()) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(Graph, FeaturesOrIdentityFallsBack) {
  Graph g = Triangle();
  Matrix f = g.FeaturesOrIdentity();
  EXPECT_EQ(f.rows(), 3);
  EXPECT_EQ(f.cols(), 3);
  EXPECT_DOUBLE_EQ(f(1, 1), 1.0);

  Matrix attrs(3, 2, 0.5);
  g.SetAttributes(attrs);
  EXPECT_EQ(g.FeaturesOrIdentity().cols(), 2);
  EXPECT_TRUE(g.has_attributes());
}

TEST(Graph, ConcurrentNeighborsOnAFreshGraphBuildOnce) {
  // Neighbors() builds the adjacency lists lazily. Four threads calling it
  // at once on a fresh Graph (and on a copy of one) must all see the lists
  // a serial build gives; under ThreadSanitizer this also checks the build
  // is race-free.
  const int n = 400;
  std::vector<Edge> edges;
  Rng rng(11);
  for (int i = 0; i < 3 * n; ++i)
    edges.push_back({static_cast<int>(rng.NextInt(n)),
                     static_cast<int>(rng.NextInt(n))});
  const Graph reference = Graph::FromEdges(n, edges);
  std::vector<std::vector<int>> expected(n);
  for (int u = 0; u < n; ++u) expected[u] = reference.Neighbors(u);

  for (int round = 0; round < 8; ++round) {
    const Graph fresh = Graph::FromEdges(n, edges);
    const Graph copy = reference;  // Carries the built lists along.
    const Graph& g = round % 2 == 0 ? fresh : copy;
    std::atomic<bool> go{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < n; ++i) {
          const int u = (i + t * n / 4) % n;
          if (g.Neighbors(u) != expected[u]) mismatches.fetch_add(1);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
  }
}

TEST(Graph, LabelsAndClassCount) {
  Graph g = Triangle();
  EXPECT_FALSE(g.has_labels());
  g.SetLabels({0, 2, 1});
  EXPECT_EQ(g.num_classes(), 3);
}

// --- Components ----------------------------------------------------------------

TEST(Components, SingleComponent) {
  ComponentsResult cc = ConnectedComponents(Triangle());
  EXPECT_EQ(cc.num_components, 1);
}

TEST(Components, DisconnectedPieces) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}});
  ComponentsResult cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 4);  // {0,1}, {2,3}, {4}, {5}.
  EXPECT_EQ(cc.component[0], cc.component[1]);
  EXPECT_NE(cc.component[0], cc.component[2]);
  EXPECT_EQ(LargestComponentSize(g), 2);
}

TEST(Components, DegreeStats) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.max, 3);
  EXPECT_EQ(stats.min, 1);
  EXPECT_NEAR(stats.mean, 1.5, 1e-12);
}

// --- IO --------------------------------------------------------------------------

TEST(GraphIo, RoundTripWithLabelsAndAttributes) {
  Graph g = Triangle();
  g.SetLabels({0, 1, 0});
  Matrix x(3, 4);
  x(0, 1) = 1.0;
  x(2, 3) = -2.5;
  g.SetAttributes(x);

  const std::string path = testing::TempDir() + "/graph_roundtrip.txt";
  ASSERT_TRUE(SaveGraph(g, path).ok());
  StatusOr<Graph> loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& h = loaded.value();
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.labels(), g.labels());
  EXPECT_DOUBLE_EQ(h.attributes()(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(h.attributes()(2, 3), -2.5);
  EXPECT_DOUBLE_EQ(h.attributes()(1, 2), 0.0);
}

TEST(GraphIo, LoadRejectsMissingFile) {
  EXPECT_EQ(LoadGraph("/no/such/file").status().code(), StatusCode::kIoError);
}

TEST(GraphIo, LoadRejectsBadHeader) {
  const std::string path = testing::TempDir() + "/bad_header.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("not a graph\n", f);
  fclose(f);
  EXPECT_EQ(LoadGraph(path).status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIo, EdgeListLoader) {
  const std::string path = testing::TempDir() + "/edges.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("# comment\n0 1\n1 2\n", f);
  fclose(f);
  StatusOr<Graph> g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_edges(), 2);

  StatusOr<Graph> g10 = LoadEdgeList(path, 10);
  ASSERT_TRUE(g10.ok());
  EXPECT_EQ(g10.value().num_nodes(), 10);
}

TEST(GraphIo, EdgeListRejectsOutOfRangeIds) {
  const std::string path = testing::TempDir() + "/edges_oor.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 7\n", f);
  fclose(f);
  EXPECT_EQ(LoadEdgeList(path, 3).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace aneci
