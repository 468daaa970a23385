#include "serve/model_artifact.h"

#include <utility>

#include "anomaly/anomaly_score.h"
#include "tasks/logistic_regression.h"
#include "util/byteio.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace aneci::serve {
namespace {

constexpr uint32_t kVersion = 1;

void PutMatrix(std::string* out, const Matrix& m) {
  PutTensorLe(out, m.rows(), m.cols(), m.data());
}

Status GetMatrix(ByteReader* reader, const std::string& origin,
                 const char* name, int32_t want_rows, int32_t want_cols,
                 Matrix* m) {
  int32_t rows = 0, cols = 0;
  ANECI_RETURN_IF_ERROR(reader->Get(&rows));
  ANECI_RETURN_IF_ERROR(reader->Get(&cols));
  if (rows != want_rows || cols != want_cols)
    return Status::InvalidArgument(
        "model artifact tensor '" + std::string(name) + "' is " +
        std::to_string(rows) + "x" + std::to_string(cols) +
        ", header declares " + std::to_string(want_rows) + "x" +
        std::to_string(want_cols) + ": " + origin);
  std::vector<double> data;
  ANECI_RETURN_IF_ERROR(
      reader->GetDoubles(static_cast<size_t>(rows) * cols, &data));
  *m = Matrix(rows, cols, std::move(data));
  return Status::OK();
}

}  // namespace

ModelArtifact BuildModelArtifact(const Graph& graph, const Matrix& z,
                                 const Matrix& p, uint64_t head_seed) {
  ModelArtifact artifact;
  artifact.num_nodes = z.rows();
  artifact.embed_dim = z.cols();
  artifact.z = z;
  artifact.p = p;

  artifact.community.resize(p.rows());
  for (int i = 0; i < p.rows(); ++i) {
    int best = 0;
    for (int c = 1; c < p.cols(); ++c)
      if (p(i, c) > p(i, best)) best = c;  // Strict '>' keeps the lowest tie.
    artifact.community[i] = best;
  }
  artifact.anomaly = MembershipEntropyScores(p);

  if (graph.has_labels()) {
    artifact.num_classes = graph.num_classes();
    Rng rng(head_seed);
    LogisticRegression head;
    head.Fit(z, graph.labels(), artifact.num_classes, rng);
    artifact.proba = head.PredictProba(z);
  }
  return artifact;
}

std::string SerializeModelArtifact(const ModelArtifact& artifact) {
  std::string payload;
  PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(artifact.num_nodes));
  PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(artifact.embed_dim));
  PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(artifact.num_classes));
  PutMatrix(&payload, artifact.z);
  PutMatrix(&payload, artifact.p);
  PutMatrix(&payload, artifact.proba);
  for (int32_t c : artifact.community) PutScalarLe<int32_t>(&payload, c);
  for (double a : artifact.anomaly) PutDoubleLe(&payload, a);
  return Seal("ANSV", kVersion, payload);
}

StatusOr<ModelArtifact> ParseModelArtifact(std::string_view bytes,
                                           const std::string& origin) {
  ANECI_ASSIGN_OR_RETURN(
      const Envelope envelope,
      Open(bytes, "ANSV", kVersion, kVersion, "model artifact", origin));
  ModelArtifact artifact;
  ByteReader reader(envelope.payload, "model artifact payload", origin);
  uint32_t num_nodes = 0, embed_dim = 0, num_classes = 0;
  ANECI_RETURN_IF_ERROR(reader.Get(&num_nodes));
  ANECI_RETURN_IF_ERROR(reader.Get(&embed_dim));
  ANECI_RETURN_IF_ERROR(reader.Get(&num_classes));
  // Bound the counts before any allocation is sized from them: a corrupt
  // header that slipped past the CRC must not drive a multi-GB resize.
  constexpr uint32_t kMaxNodes = 1u << 28;
  constexpr uint32_t kMaxDim = 1u << 16;
  if (num_nodes == 0 || num_nodes > kMaxNodes)
    return Status::InvalidArgument("model artifact node count " +
                                   std::to_string(num_nodes) +
                                   " out of range: " + origin);
  if (embed_dim == 0 || embed_dim > kMaxDim)
    return Status::InvalidArgument("model artifact embed dim " +
                                   std::to_string(embed_dim) +
                                   " out of range: " + origin);
  if (num_classes > kMaxDim)
    return Status::InvalidArgument("model artifact class count " +
                                   std::to_string(num_classes) +
                                   " out of range: " + origin);
  artifact.num_nodes = static_cast<int32_t>(num_nodes);
  artifact.embed_dim = static_cast<int32_t>(embed_dim);
  artifact.num_classes = static_cast<int32_t>(num_classes);

  ANECI_RETURN_IF_ERROR(GetMatrix(&reader, origin, "z", artifact.num_nodes,
                                  artifact.embed_dim, &artifact.z));
  ANECI_RETURN_IF_ERROR(GetMatrix(&reader, origin, "p", artifact.num_nodes,
                                  artifact.embed_dim, &artifact.p));
  ANECI_RETURN_IF_ERROR(GetMatrix(
      &reader, origin, "proba", artifact.num_classes == 0 ? 0 : artifact.num_nodes,
      artifact.num_classes, &artifact.proba));
  artifact.community.resize(num_nodes);
  for (int32_t& c : artifact.community) {
    ANECI_RETURN_IF_ERROR(reader.Get(&c));
    if (c < 0 || c >= artifact.embed_dim)
      return Status::InvalidArgument(
          "model artifact community id " + std::to_string(c) +
          " outside [0, " + std::to_string(artifact.embed_dim) + "): " +
          origin);
  }
  ANECI_RETURN_IF_ERROR(reader.GetDoubles(num_nodes, &artifact.anomaly));
  if (!reader.exhausted())
    return Status::InvalidArgument("model artifact has trailing bytes: " +
                                   origin);
  return artifact;
}

Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path, Env* env) {
  if (!env) env = Env::Default();
  static Counter* saves = MetricsRegistry::Global().GetCounter(
      "serve/artifact/saves", MetricClass::kDeterministic);
  saves->Increment();
  return env->WriteFileAtomic(path, SerializeModelArtifact(artifact));
}

StatusOr<ModelArtifact> LoadModelArtifact(const std::string& path, Env* env) {
  if (!env) env = Env::Default();
  static Counter* loads = MetricsRegistry::Global().GetCounter(
      "serve/artifact/loads", MetricClass::kDeterministic);
  loads->Increment();
  ANECI_ASSIGN_OR_RETURN(const std::string bytes, env->ReadFile(path));
  return ParseModelArtifact(bytes, path);
}

}  // namespace aneci::serve
