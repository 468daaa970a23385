// The on-disk serving artifact ("ANSV"): everything the online query path
// needs, precomputed at export time so a serving process never touches the
// training stack. Where the "ANCK" training checkpoint captures *how to
// continue training*, the serving artifact captures *what the model
// answers*: node embeddings Z, soft community memberships P, the hard
// community assignment, per-node anomaly scores, and (for labelled graphs) a
// frozen label head's per-node class probabilities.
//
// The file is the shared envelope of util/byteio.h (docs/robustness.md §6)
// with magic "ANSV", version 1, and this little-endian payload:
//   u32 num_nodes, u32 embed_dim, u32 num_classes
//   tensor z        (num_nodes x embed_dim doubles)
//   tensor p        (num_nodes x embed_dim doubles)
//   tensor proba    (num_nodes x num_classes doubles; absent rows/cols = 0)
//   i32  community[num_nodes]
//   f64  anomaly[num_nodes]
//
// Loading checks the envelope before any field is interpreted, then
// cross-checks every shape against the header counts, so a torn or tampered
// artifact is rejected with a precise Status instead of being served. Writes
// go through Env::WriteFileAtomic: a crash mid-export never clobbers the
// artifact a live server may re-load.
#ifndef ANECI_SERVE_MODEL_ARTIFACT_H_
#define ANECI_SERVE_MODEL_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "util/env.h"
#include "util/status.h"

namespace aneci::serve {

struct ModelArtifact {
  int32_t num_nodes = 0;
  int32_t embed_dim = 0;
  /// 0 when the source graph had no labels; then `proba` is empty and
  /// classify queries are rejected by the query engine.
  int32_t num_classes = 0;

  Matrix z;      ///< Node embeddings (num_nodes x embed_dim).
  Matrix p;      ///< Soft community memberships softmax(Z), same shape.
  Matrix proba;  ///< Label-head class probabilities (num_nodes x num_classes).

  std::vector<int32_t> community;  ///< argmax_k P(i, k); ties -> lowest k.
  std::vector<double> anomaly;     ///< Membership entropy (Section VI-C).
};

/// Builds the artifact from a trained model's outputs. `z` and `p` are the
/// embeddings and memberships of a training run (AneciResult::z / ::p); the
/// community assignment and anomaly scores are derived from `p` exactly as
/// the offline evaluation does (argmax rows, membership entropy). When the
/// graph carries labels, a multinomial logistic-regression head is fitted on
/// (z, labels) with `head_seed` and its probabilities for every node are
/// frozen into the artifact — deterministic for a fixed seed at any
/// ANECI_THREADS value.
ModelArtifact BuildModelArtifact(const Graph& graph, const Matrix& z,
                                 const Matrix& p, uint64_t head_seed = 1234);

/// Serialises to the full file byte string (header + CRC + payload).
std::string SerializeModelArtifact(const ModelArtifact& artifact);

/// Validates and decodes file bytes. `origin` names the source in errors.
StatusOr<ModelArtifact> ParseModelArtifact(std::string_view bytes,
                                           const std::string& origin);

Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path, Env* env = nullptr);

StatusOr<ModelArtifact> LoadModelArtifact(const std::string& path,
                                          Env* env = nullptr);

}  // namespace aneci::serve

#endif  // ANECI_SERVE_MODEL_ARTIFACT_H_
