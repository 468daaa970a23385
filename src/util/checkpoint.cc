#include "util/checkpoint.h"

#include "util/byteio.h"
#include "util/check.h"
#include "util/metrics.h"

namespace aneci {
namespace {

// v2 appends the adversarial-training RNG block after the epoch history.
// Only v2 is read: every writer seals v2, and a checkpoint is resume state
// for one run, not an archive.
constexpr uint32_t kVersion = 2;

void PutRngState(std::string* out, const Rng::State& st) {
  for (uint64_t s : st.s) PutScalarLe<uint64_t>(out, s);
  PutScalarLe<uint8_t>(out, st.has_gauss ? 1 : 0);
  PutDoubleLe(out, st.gauss);
}

Status GetRngState(ByteReader* reader, Rng::State* st) {
  for (uint64_t& s : st->s) ANECI_RETURN_IF_ERROR(reader->Get(&s));
  uint8_t has_gauss = 0;
  ANECI_RETURN_IF_ERROR(reader->Get(&has_gauss));
  st->has_gauss = has_gauss != 0;
  return reader->GetDouble(&st->gauss);
}

void PutTensors(std::string* out, const std::vector<TensorBlob>& tensors) {
  PutScalarLe<uint32_t>(out, static_cast<uint32_t>(tensors.size()));
  for (const TensorBlob& t : tensors) {
    ANECI_CHECK_EQ(t.data.size(), static_cast<size_t>(t.rows) * t.cols);
    PutTensorLe(out, t.rows, t.cols, t.data.data());
  }
}

Status GetTensors(ByteReader* reader, const std::string& origin,
                  std::vector<TensorBlob>* tensors) {
  uint32_t count = 0;
  ANECI_RETURN_IF_ERROR(reader->Get(&count));
  ANECI_RETURN_IF_ERROR(reader->CheckCount(count, 2 * sizeof(int32_t)));
  tensors->resize(count);
  for (TensorBlob& t : *tensors) {
    ANECI_RETURN_IF_ERROR(reader->Get(&t.rows));
    ANECI_RETURN_IF_ERROR(reader->Get(&t.cols));
    if (t.rows < 0 || t.cols < 0)
      return Status::InvalidArgument("checkpoint tensor has negative shape: " +
                                     origin);
    ANECI_RETURN_IF_ERROR(
        reader->GetDoubles(static_cast<size_t>(t.rows) * t.cols, &t.data));
  }
  return Status::OK();
}

}  // namespace

std::string SerializeCheckpoint(const TrainingCheckpoint& c) {
  std::string payload;
  PutScalarLe<uint64_t>(&payload, c.config_fingerprint);
  PutScalarLe<int32_t>(&payload, c.next_epoch);
  PutScalarLe<int32_t>(&payload, c.adam_step);
  PutDoubleLe(&payload, c.lr);
  PutDoubleLe(&payload, c.best_mod_loss);
  PutScalarLe<int32_t>(&payload, c.since_best);
  PutScalarLe<int32_t>(&payload, c.watchdog_rollbacks);
  PutDoubleLe(&payload, c.watchdog_best_abs_loss);
  PutRngState(&payload, c.rng);
  PutTensors(&payload, c.params);
  PutTensors(&payload, c.opt_m);
  PutTensors(&payload, c.opt_v);
  PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(c.pairs.size()));
  for (const PairBlob& p : c.pairs) {
    PutScalarLe<int32_t>(&payload, p.u);
    PutScalarLe<int32_t>(&payload, p.v);
    PutDoubleLe(&payload, p.target);
  }
  PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(c.history.size()));
  for (const EpochStatBlob& h : c.history) {
    PutScalarLe<int32_t>(&payload, h.epoch);
    PutDoubleLe(&payload, h.loss);
    PutDoubleLe(&payload, h.modularity);
    PutDoubleLe(&payload, h.rigidity);
  }
  PutRngState(&payload, c.adv_rng);
  return Seal("ANCK", kVersion, payload);
}

StatusOr<TrainingCheckpoint> ParseCheckpoint(std::string_view bytes,
                                             const std::string& origin) {
  ANECI_ASSIGN_OR_RETURN(
      const Envelope envelope,
      Open(bytes, "ANCK", kVersion, kVersion, "checkpoint", origin));
  TrainingCheckpoint c;
  ByteReader reader(envelope.payload, "checkpoint payload", origin);
  ANECI_RETURN_IF_ERROR(reader.Get(&c.config_fingerprint));
  ANECI_RETURN_IF_ERROR(reader.Get(&c.next_epoch));
  ANECI_RETURN_IF_ERROR(reader.Get(&c.adam_step));
  ANECI_RETURN_IF_ERROR(reader.GetDouble(&c.lr));
  ANECI_RETURN_IF_ERROR(reader.GetDouble(&c.best_mod_loss));
  ANECI_RETURN_IF_ERROR(reader.Get(&c.since_best));
  ANECI_RETURN_IF_ERROR(reader.Get(&c.watchdog_rollbacks));
  ANECI_RETURN_IF_ERROR(reader.GetDouble(&c.watchdog_best_abs_loss));
  ANECI_RETURN_IF_ERROR(GetRngState(&reader, &c.rng));
  ANECI_RETURN_IF_ERROR(GetTensors(&reader, origin, &c.params));
  ANECI_RETURN_IF_ERROR(GetTensors(&reader, origin, &c.opt_m));
  ANECI_RETURN_IF_ERROR(GetTensors(&reader, origin, &c.opt_v));
  uint32_t count = 0;
  ANECI_RETURN_IF_ERROR(reader.Get(&count));
  ANECI_RETURN_IF_ERROR(reader.CheckCount(count, 4 + 4 + 8));
  c.pairs.resize(count);
  for (PairBlob& p : c.pairs) {
    ANECI_RETURN_IF_ERROR(reader.Get(&p.u));
    ANECI_RETURN_IF_ERROR(reader.Get(&p.v));
    ANECI_RETURN_IF_ERROR(reader.GetDouble(&p.target));
  }
  ANECI_RETURN_IF_ERROR(reader.Get(&count));
  ANECI_RETURN_IF_ERROR(reader.CheckCount(count, 4 + 3 * 8));
  c.history.resize(count);
  for (EpochStatBlob& h : c.history) {
    ANECI_RETURN_IF_ERROR(reader.Get(&h.epoch));
    ANECI_RETURN_IF_ERROR(reader.GetDouble(&h.loss));
    ANECI_RETURN_IF_ERROR(reader.GetDouble(&h.modularity));
    ANECI_RETURN_IF_ERROR(reader.GetDouble(&h.rigidity));
  }
  ANECI_RETURN_IF_ERROR(GetRngState(&reader, &c.adv_rng));
  if (!reader.exhausted())
    return Status::InvalidArgument("checkpoint has trailing bytes: " + origin);
  return c;
}

namespace {

const std::vector<double>& LatencyBoundsMs() {
  static const std::vector<double>* bounds = new std::vector<double>(
      {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0});
  return *bounds;
}

}  // namespace

Status SaveCheckpoint(const TrainingCheckpoint& checkpoint,
                      const std::string& path, Env* env) {
  if (!env) env = Env::Default();
  static Counter* saves = MetricsRegistry::Global().GetCounter(
      "checkpoint/saves", MetricClass::kDeterministic);
  static Histogram* save_ms = MetricsRegistry::Global().GetHistogram(
      "checkpoint/save_ms", LatencyBoundsMs());
  saves->Increment();
  ScopedLatencyTimer latency(save_ms);
  return env->WriteFileAtomic(path, SerializeCheckpoint(checkpoint));
}

StatusOr<TrainingCheckpoint> LoadCheckpoint(const std::string& path,
                                            Env* env) {
  if (!env) env = Env::Default();
  static Counter* loads = MetricsRegistry::Global().GetCounter(
      "checkpoint/loads", MetricClass::kDeterministic);
  static Histogram* load_ms = MetricsRegistry::Global().GetHistogram(
      "checkpoint/load_ms", LatencyBoundsMs());
  loads->Increment();
  ScopedLatencyTimer latency(load_ms);
  ANECI_ASSIGN_OR_RETURN(const std::string bytes, env->ReadFile(path));
  return ParseCheckpoint(bytes, path);
}

std::string CheckpointBinPath(const std::string& dir) {
  return dir + "/checkpoint.bin";
}

std::string CheckpointBakPath(const std::string& dir) {
  return dir + "/checkpoint.bak";
}

Status SaveRotatingCheckpoint(const TrainingCheckpoint& checkpoint,
                              const std::string& dir, Env* env) {
  if (!env) env = Env::Default();
  ANECI_RETURN_IF_ERROR(env->CreateDir(dir));
  const std::string bin = CheckpointBinPath(dir);
  if (env->FileExists(bin))
    ANECI_RETURN_IF_ERROR(env->RenameFile(bin, CheckpointBakPath(dir)));
  return SaveCheckpoint(checkpoint, bin, env);
}

StatusOr<TrainingCheckpoint> LoadLatestCheckpoint(const std::string& dir,
                                                  Env* env,
                                                  std::string* loaded_path) {
  if (!env) env = Env::Default();
  const std::string bin = CheckpointBinPath(dir);
  const std::string bak = CheckpointBakPath(dir);
  const bool have_bin = env->FileExists(bin);
  const bool have_bak = env->FileExists(bak);
  if (!have_bin && !have_bak)
    return Status::NotFound("no checkpoint in " + dir);
  Status primary_error = Status::OK();
  if (have_bin) {
    StatusOr<TrainingCheckpoint> c = LoadCheckpoint(bin, env);
    if (c.ok()) {
      if (loaded_path) *loaded_path = bin;
      return c;
    }
    primary_error = c.status();
  }
  if (have_bak) {
    StatusOr<TrainingCheckpoint> c = LoadCheckpoint(bak, env);
    if (c.ok()) {
      static Counter* bak_fallbacks = MetricsRegistry::Global().GetCounter(
          "checkpoint/bak_fallbacks", MetricClass::kDeterministic);
      if (have_bin) bak_fallbacks->Increment();
      if (loaded_path) *loaded_path = bak;
      return c;
    }
    if (primary_error.ok()) primary_error = c.status();
  }
  return primary_error;
}

}  // namespace aneci
