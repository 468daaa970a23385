#include "graph/graph.h"

#include <algorithm>

#include "util/check.h"

namespace aneci {

Graph Graph::FromEdges(int num_nodes, const std::vector<Edge>& edges) {
  Graph g(num_nodes);
  std::vector<Edge> normalized;
  normalized.reserve(edges.size());
  for (Edge e : edges) {
    ANECI_CHECK(e.u >= 0 && e.u < num_nodes && e.v >= 0 && e.v < num_nodes);
    if (e.u == e.v) continue;
    if (e.u > e.v) std::swap(e.u, e.v);
    normalized.push_back(e);
  }
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  g.edges_ = std::move(normalized);
  return g;
}

bool Graph::HasEdge(int u, int v) const {
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  return std::binary_search(edges_.begin(), edges_.end(), Edge{u, v});
}

bool Graph::AddEdge(int u, int v) {
  ANECI_CHECK(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_);
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  const Edge e{u, v};
  auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it != edges_.end() && *it == e) return false;
  edges_.insert(it, e);
  InvalidateAdjacency();
  return true;
}

bool Graph::RemoveEdge(int u, int v) {
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  const Edge e{u, v};
  auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it == edges_.end() || !(*it == e)) return false;
  edges_.erase(it);
  InvalidateAdjacency();
  return true;
}

const std::vector<int>& Graph::Neighbors(int u) const {
  ANECI_CHECK(u >= 0 && u < num_nodes_);
  EnsureAdjacency();
  return adjacency_.neighbors[u];
}

void Graph::SetAttributes(Matrix x) {
  ANECI_CHECK_EQ(x.rows(), num_nodes_);
  attributes_ = std::move(x);
}

void Graph::SetLabels(std::vector<int> labels) {
  ANECI_CHECK_EQ(static_cast<int>(labels.size()), num_nodes_);
  labels_ = std::move(labels);
}

int Graph::num_classes() const {
  int k = 0;
  for (int y : labels_) k = std::max(k, y + 1);
  return k;
}

SparseMatrix Graph::Adjacency(bool add_self_loops) const {
  std::vector<Triplet> trips;
  trips.reserve(2 * edges_.size() + (add_self_loops ? num_nodes_ : 0));
  for (const Edge& e : edges_) {
    trips.push_back({e.u, e.v, 1.0});
    trips.push_back({e.v, e.u, 1.0});
  }
  if (add_self_loops)
    for (int i = 0; i < num_nodes_; ++i) trips.push_back({i, i, 1.0});
  return SparseMatrix::FromTriplets(num_nodes_, num_nodes_, std::move(trips));
}

SparseMatrix Graph::NormalizedAdjacency() const {
  return Adjacency(/*add_self_loops=*/true).SymmetricallyNormalized();
}

Matrix Graph::FeaturesOrIdentity() const {
  if (has_attributes()) return attributes_;
  return Matrix::Identity(num_nodes_);
}

Graph::AdjacencyCache& Graph::AdjacencyCache::operator=(
    const AdjacencyCache& other) {
  if (this == &other) return *this;
  const bool built = other.valid.load(std::memory_order_acquire);
  neighbors = built ? other.neighbors : std::vector<std::vector<int>>();
  valid.store(built, std::memory_order_release);
  return *this;
}

Graph::AdjacencyCache& Graph::AdjacencyCache::operator=(
    AdjacencyCache&& other) noexcept {
  if (this == &other) return *this;
  const bool built = other.valid.load(std::memory_order_acquire);
  neighbors = built ? std::move(other.neighbors)
                    : std::vector<std::vector<int>>();
  valid.store(built, std::memory_order_release);
  other.valid.store(false, std::memory_order_release);
  return *this;
}

// Mutators are non-const, so no reader runs beside them.
void Graph::InvalidateAdjacency() {
  adjacency_.valid.store(false, std::memory_order_release);
}

void Graph::EnsureAdjacency() const {
  if (adjacency_.valid.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(adjacency_.mu);
  if (adjacency_.valid.load(std::memory_order_relaxed)) return;
  std::vector<std::vector<int>>& neighbors = adjacency_.neighbors;
  neighbors.assign(num_nodes_, {});
  for (const Edge& e : edges_) {
    neighbors[e.u].push_back(e.v);
    neighbors[e.v].push_back(e.u);
  }
  for (auto& list : neighbors) std::sort(list.begin(), list.end());
  adjacency_.valid.store(true, std::memory_order_release);
}

}  // namespace aneci
