// Attributed network container (Definition 1): undirected simple graph with
// optional per-node attribute vectors and class labels, stored as a sorted
// edge set plus derived CSR adjacency.
#ifndef ANECI_GRAPH_GRAPH_H_
#define ANECI_GRAPH_GRAPH_H_

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace aneci {

/// Undirected edge, stored with u <= v.
struct Edge {
  int u;
  int v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// An attributed network G = (V, E, X) with optional labels y.
/// Self-loops are not stored as edges; adjacency builders add them on demand
/// (Definition 2 adds self-connections for the GCN propagation).
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes) : num_nodes_(num_nodes) {}

  /// Builds from an edge list; duplicates and self-loops are dropped.
  static Graph FromEdges(int num_nodes, const std::vector<Edge>& edges);

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const std::vector<Edge>& edges() const { return edges_; }

  bool HasEdge(int u, int v) const;

  /// Adds edge (u, v) if absent; returns true if added.
  bool AddEdge(int u, int v);

  /// Removes edge (u, v) if present; returns true if removed.
  bool RemoveEdge(int u, int v);

  /// Neighbors of u (sorted).
  const std::vector<int>& Neighbors(int u) const;

  int Degree(int u) const { return static_cast<int>(Neighbors(u).size()); }

  // --- Attributes & labels --------------------------------------------------

  bool has_attributes() const { return !attributes_.empty(); }
  const Matrix& attributes() const { return attributes_; }
  Matrix& mutable_attributes() { return attributes_; }
  void SetAttributes(Matrix x);

  /// Attribute dimensionality d, or 0 if absent.
  int attribute_dim() const { return attributes_.cols(); }

  bool has_labels() const { return !labels_.empty(); }
  const std::vector<int>& labels() const { return labels_; }
  void SetLabels(std::vector<int> labels);
  int num_classes() const;

  // --- Matrix views ----------------------------------------------------------

  /// Adjacency A (0/1, symmetric), optionally with unit self-loops.
  SparseMatrix Adjacency(bool add_self_loops = false) const;

  /// GCN propagation operator D^{-1/2} (A + I) D^{-1/2} (Eq. 2).
  SparseMatrix NormalizedAdjacency() const;

  /// Attribute matrix if present, otherwise the identity (the paper's
  /// convention for Polblogs: "use the unit matrix instead").
  Matrix FeaturesOrIdentity() const;

 private:
  void InvalidateAdjacency();
  void EnsureAdjacency() const;

  int num_nodes_ = 0;
  std::vector<Edge> edges_;  // Sorted, unique, u < v.
  Matrix attributes_;
  std::vector<int> labels_;

  // Neighbor lists derived lazily from edges_. Const readers may share a
  // Graph across threads, so the first Neighbors() call builds the lists by
  // double-checked locking: `valid` is read with acquire and set with
  // release once the lists are complete, and `mu` is held only while
  // building. Copies and moves carry built lists along.
  struct AdjacencyCache {
    AdjacencyCache() = default;
    AdjacencyCache(const AdjacencyCache& other) { *this = other; }
    AdjacencyCache(AdjacencyCache&& other) noexcept {
      *this = std::move(other);
    }
    AdjacencyCache& operator=(const AdjacencyCache& other);
    AdjacencyCache& operator=(AdjacencyCache&& other) noexcept;

    std::mutex mu;
    std::atomic<bool> valid{false};
    /// Written only with `mu` held while `valid` is false.
    std::vector<std::vector<int>> neighbors;
  };
  mutable AdjacencyCache adjacency_;
};

}  // namespace aneci

#endif  // ANECI_GRAPH_GRAPH_H_
