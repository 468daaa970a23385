#include "graph/graph_io.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/env.h"

namespace aneci {
namespace {

// strtol/strtod wrappers that reject partial parses ("12x"), overflow and
// empty input instead of throwing or silently truncating like stoi/stod.

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Status SaveGraph(const Graph& graph, const std::string& path, Env* env) {
  if (!env) env = Env::Default();
  std::ostringstream out;
  out << "# aneci-graph v1\n";
  out << "nodes " << graph.num_nodes() << "\n";
  out << "edges " << graph.num_edges() << "\n";
  for (const Edge& e : graph.edges()) out << e.u << " " << e.v << "\n";
  if (graph.has_labels()) {
    out << "labels\n";
    for (int i = 0; i < graph.num_nodes(); ++i) {
      if (i) out << " ";
      out << graph.labels()[i];
    }
    out << "\n";
  }
  if (graph.has_attributes()) {
    const Matrix& x = graph.attributes();
    out << "attributes " << x.cols() << "\n";
    for (int r = 0; r < x.rows(); ++r) {
      int nnz = 0;
      for (int c = 0; c < x.cols(); ++c)
        if (x(r, c) != 0.0) ++nnz;
      out << nnz;
      for (int c = 0; c < x.cols(); ++c)
        if (x(r, c) != 0.0) out << " " << c << ":" << x(r, c);
      out << "\n";
    }
  }
  // Atomic temp-file + rename: an interrupted save never leaves a torn
  // graph file for LoadGraph to half-parse.
  return env->WriteFileAtomic(path, out.str());
}

StatusOr<Graph> LoadGraph(const std::string& path, Env* env) {
  if (!env) env = Env::Default();
  ANECI_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(path));
  std::istringstream in(std::move(bytes));
  std::string line;
  if (!std::getline(in, line) || line.rfind("# aneci-graph", 0) != 0)
    return Status::InvalidArgument("missing aneci-graph header in " + path);

  std::string keyword;
  int n = 0, m = 0;
  if (!(in >> keyword >> n) || keyword != "nodes")
    return Status::InvalidArgument("expected 'nodes <N>' in " + path);
  if (!(in >> keyword >> m) || keyword != "edges")
    return Status::InvalidArgument("expected 'edges <M>' in " + path);
  if (n < 0 || m < 0)
    return Status::InvalidArgument("negative counts in " + path);

  std::vector<Edge> edges;
  edges.reserve(m);
  for (int i = 0; i < m; ++i) {
    int u, v;
    if (!(in >> u >> v))
      return Status::InvalidArgument(
          "truncated edge list in " + path + ": expected " +
          std::to_string(m) + " edges, failed at edge " + std::to_string(i));
    if (u < 0 || u >= n || v < 0 || v >= n)
      return Status::OutOfRange(
          "edge " + std::to_string(i) + " endpoint (" + std::to_string(u) +
          ", " + std::to_string(v) + ") out of range [0, " +
          std::to_string(n) + ") in " + path);
    edges.push_back({u, v});
  }
  Graph graph = Graph::FromEdges(n, edges);

  bool seen_labels = false, seen_attributes = false;
  while (in >> keyword) {
    if (keyword == "labels") {
      if (seen_labels)
        return Status::InvalidArgument("duplicate labels section in " + path);
      seen_labels = true;
      std::vector<int> labels(n);
      for (int i = 0; i < n; ++i) {
        if (!(in >> labels[i]))
          return Status::InvalidArgument(
              "truncated labels in " + path + ": expected " +
              std::to_string(n) + " labels, failed at label " +
              std::to_string(i));
        if (labels[i] < 0)
          return Status::OutOfRange("negative label " +
                                    std::to_string(labels[i]) + " at node " +
                                    std::to_string(i) + " in " + path);
      }
      graph.SetLabels(std::move(labels));
    } else if (keyword == "attributes") {
      if (seen_attributes)
        return Status::InvalidArgument("duplicate attributes section in " +
                                       path);
      seen_attributes = true;
      int d = 0;
      if (!(in >> d) || d <= 0)
        return Status::InvalidArgument("bad attribute dim in " + path);
      Matrix x(n, d);
      for (int r = 0; r < n; ++r) {
        int nnz = 0;
        if (!(in >> nnz))
          return Status::InvalidArgument(
              "truncated attributes in " + path + ": expected " +
              std::to_string(n) + " rows, failed at row " + std::to_string(r));
        if (nnz < 0 || nnz > d)
          return Status::OutOfRange(
              "attribute row " + std::to_string(r) + " declares " +
              std::to_string(nnz) + " nonzeros, valid range is [0, " +
              std::to_string(d) + "] in " + path);
        for (int j = 0; j < nnz; ++j) {
          std::string cell;
          if (!(in >> cell))
            return Status::InvalidArgument(
                "truncated attribute row " + std::to_string(r) + " in " +
                path);
          const size_t colon = cell.find(':');
          if (colon == std::string::npos)
            return Status::InvalidArgument(
                "bad attribute cell (no col:val separator): '" + cell +
                "' at row " + std::to_string(r) + " in " + path);
          int c = 0;
          double v = 0.0;
          if (!ParseInt(cell.substr(0, colon), &c))
            return Status::InvalidArgument(
                "bad attribute column in cell '" + cell + "' at row " +
                std::to_string(r) + " in " + path);
          if (!ParseDouble(cell.substr(colon + 1), &v))
            return Status::InvalidArgument(
                "bad attribute value in cell '" + cell + "' at row " +
                std::to_string(r) + " in " + path);
          if (c < 0 || c >= d)
            return Status::OutOfRange(
                "attribute column " + std::to_string(c) + " out of range [0, " +
                std::to_string(d) + ") at row " + std::to_string(r) + " in " +
                path);
          x(r, c) = v;
        }
      }
      graph.SetAttributes(std::move(x));
    } else {
      return Status::InvalidArgument("unknown section or trailing garbage: '" +
                                     keyword + "' in " + path);
    }
  }
  return graph;
}

StatusOr<Graph> LoadEdgeList(const std::string& path, int num_nodes,
                             Env* env) {
  if (!env) env = Env::Default();
  ANECI_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(path));
  std::istringstream in(std::move(bytes));
  std::vector<Edge> edges;
  int max_id = -1;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    int u, v;
    if (!(ss >> u >> v))
      return Status::InvalidArgument("bad edge line " +
                                     std::to_string(line_no) + ": '" + line +
                                     "' in " + path);
    std::string trailing;
    if (ss >> trailing)
      return Status::InvalidArgument(
          "trailing garbage '" + trailing + "' on edge line " +
          std::to_string(line_no) + " in " + path);
    if (u < 0 || v < 0)
      return Status::OutOfRange("negative node id on line " +
                                std::to_string(line_no) + " in " + path);
    max_id = std::max({max_id, u, v});
    edges.push_back({u, v});
  }
  const int n = num_nodes > 0 ? num_nodes : max_id + 1;
  if (max_id >= n)
    return Status::OutOfRange("node id " + std::to_string(max_id) +
                              " exceeds num_nodes " + std::to_string(n) +
                              " in " + path);
  return Graph::FromEdges(n, edges);
}

}  // namespace aneci
