#include "core/aneci.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "attack/dice.h"
#include "attack/random_attack.h"
#include "autograd/memory_planner.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/losses.h"
#include "graph/modularity.h"
#include "util/check.h"
#include "util/checkpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace aneci {

using ag::VarPtr;

namespace {

TensorBlob ToBlob(const Matrix& m) {
  TensorBlob b;
  b.rows = m.rows();
  b.cols = m.cols();
  b.data.assign(m.data(), m.data() + m.size());
  return b;
}

Matrix BlobToMatrix(const TensorBlob& b) {
  Matrix m(b.rows, b.cols);
  std::copy(b.data.begin(), b.data.end(), m.data());
  return m;
}

bool BlobShapeMatches(const TensorBlob& b, const Matrix& m) {
  return b.rows == m.rows() && b.cols == m.cols();
}

void HashMix(uint64_t* h, uint64_t v) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ULL;
  }
}

void HashMixDouble(uint64_t* h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  HashMix(h, bits);
}

/// Serial L2 norm over all parameter gradients. Each per-parameter sum runs
/// in the same element order at every thread count, so the value is part of
/// the deterministic telemetry contract.
double GradNorm(const std::vector<ag::VarPtr>& params) {
  double sum = 0.0;
  for (const ag::VarPtr& p : params) {
    const Matrix& g = p->grad();
    for (int64_t i = 0; i < g.size(); ++i) sum += g.data()[i] * g.data()[i];
  }
  return std::sqrt(sum);
}

/// Fingerprint of everything that shapes the training trajectory besides the
/// snapshotted state: structural config plus graph dimensions. Deliberately
/// excludes `epochs` (resuming with a larger budget extends a run) and
/// `seed` (the restored RNG state supersedes it).
uint64_t ResilienceFingerprint(const AneciConfig& cfg, const Graph& graph) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis.
  HashMix(&h, static_cast<uint64_t>(cfg.hidden_dim));
  HashMix(&h, static_cast<uint64_t>(cfg.embed_dim));
  HashMix(&h, static_cast<uint64_t>(cfg.proximity.order));
  HashMix(&h, static_cast<uint64_t>(cfg.proximity.weights.size()));
  for (double w : cfg.proximity.weights) HashMixDouble(&h, w);
  HashMixDouble(&h, cfg.proximity.drop_tol);
  HashMix(&h, cfg.proximity.add_self_loops ? 1 : 0);
  HashMixDouble(&h, cfg.beta1);
  HashMixDouble(&h, cfg.beta2);
  HashMix(&h, static_cast<uint64_t>(cfg.modularity_variant));
  HashMixDouble(&h, cfg.lr);
  HashMixDouble(&h, cfg.weight_decay);
  HashMixDouble(&h, cfg.leaky_relu_alpha);
  HashMix(&h, static_cast<uint64_t>(cfg.encoder));
  HashMix(&h, static_cast<uint64_t>(cfg.reconstruction));
  HashMix(&h, static_cast<uint64_t>(cfg.dense_threshold));
  HashMix(&h, static_cast<uint64_t>(cfg.negatives_per_node));
  HashMix(&h, static_cast<uint64_t>(cfg.resample_every));
  HashMix(&h, static_cast<uint64_t>(cfg.early_stop_patience));
  HashMixDouble(&h, cfg.early_stop_min_delta);
  if (cfg.adversarial.enabled) {
    // Mixed only when enabled so fingerprints of non-adversarial runs stay
    // compatible with their pre-adversarial-training snapshots.
    HashMix(&h, 0xADuLL);
    HashMixDouble(&h, cfg.adversarial.budget);
    HashMix(&h, static_cast<uint64_t>(cfg.adversarial.every));
    HashMix(&h, static_cast<uint64_t>(cfg.adversarial.kind));
    HashMix(&h, cfg.adversarial.seed);
  }
  HashMix(&h, static_cast<uint64_t>(graph.num_nodes()));
  HashMix(&h, static_cast<uint64_t>(graph.num_edges()));
  HashMix(&h, static_cast<uint64_t>(graph.attribute_dim()));
  return h;
}

}  // namespace

StatusOr<AneciResult> Aneci::TrainWithResilience(
    const Graph& graph, const EpochCallback& on_epoch) const {
  TraceSpan train_span("train/aneci");
  static Counter* runs = MetricsRegistry::Global().GetCounter(
      "train/runs", MetricClass::kDeterministic);
  static Counter* epochs_run = MetricsRegistry::Global().GetCounter(
      "train/epochs", MetricClass::kDeterministic);
  static Counter* rollbacks_taken_counter = MetricsRegistry::Global().GetCounter(
      "train/watchdog_rollbacks", MetricClass::kDeterministic);
  static Counter* early_stops = MetricsRegistry::Global().GetCounter(
      "train/early_stops", MetricClass::kDeterministic);
  static Gauge* last_loss = MetricsRegistry::Global().GetGauge(
      "train/last_loss", MetricClass::kDeterministic);
  static Gauge* arena_fresh = MetricsRegistry::Global().GetGauge(
      "train/arena_fresh_bytes", MetricClass::kDeterministic);
  static Gauge* arena_reused = MetricsRegistry::Global().GetGauge(
      "train/arena_reused_bytes", MetricClass::kDeterministic);
  TelemetryRing* ring = MetricsRegistry::Global().GetRing("train/epochs");
  runs->Increment();

  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);
  Rng rng(config_.seed);
  const AdversarialTrainingOptions& adv = config_.adversarial;
  // Dedicated perturbation stream: enabling adversarial training must not
  // shift any draw of the main stream, and vice versa.
  Rng adv_rng(adv.seed);
  Env* env = config_.env ? config_.env : Env::Default();

  // Precompute the constant operators: GCN propagation S, sparse features X
  // (the identity for an attribute-free graph), and the high-order proximity
  // A~ (both the training target and the modularity's structural prior).
  SparseMatrix s_norm, x_sparse, proximity;
  {
    TraceSpan setup_span("setup");  // Path: train/aneci/setup.
    s_norm = graph.NormalizedAdjacency();
    x_sparse = graph.has_attributes()
                   ? SparseMatrix::FromDense(graph.attributes())
                   : SparseMatrix::Identity(n);
    proximity = HighOrderProximity(graph, config_.proximity);
  }
  const double two_m_scale = proximity.SumAll();
  // The GCN's S is bit-symmetric, so the propagation's backward runs Spmm
  // over S itself (ag::SparseOperator). X keeps SpMM's SpmmT backward, which
  // streams dY in row order; a row-parallel Spmm over a transposed copy of
  // X gathers a 64-wide row of dY per stored entry instead and runs over
  // twice as long at the Pubmed analogue's shapes.
  const ag::SparseOperator s_op(&s_norm);

  // Every epoch rebuilds the same tape, so its forward values and gradients
  // come from one arena that outlives the epoch (autograd/memory_planner.h):
  // each tape returns its buffers when it is dropped and the next one draws
  // them again, instead of first-touching fresh pages.
  const auto arena = std::make_shared<ag::EpochArena>();
  const ag::EpochArena::Scope arena_scope(arena);

  const bool dense_recon =
      config_.reconstruction == ReconstructionMode::kDense ||
      (config_.reconstruction == ReconstructionMode::kAuto &&
       n <= config_.dense_threshold);

  // Parameters of the two GCN layers (Eq. 2).
  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), config_.hidden_dim, rng));
  auto b1 = ag::MakeParameter(Matrix(1, config_.hidden_dim));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(config_.hidden_dim, config_.embed_dim, rng));
  auto b2 = ag::MakeParameter(Matrix(1, config_.embed_dim));
  const std::vector<VarPtr> params = {w1, b1, w2, b2};

  ag::Adam::Options adam;
  adam.lr = config_.lr;
  adam.weight_decay = config_.weight_decay;
  ag::Adam optimizer(params, adam);

  auto forward = [&](const ag::SparseOperator& prop) {
    // H1 = LeakyReLU(S X W1 + b1); Z = S H1 W2 + b2.
    VarPtr xw = ag::SpMM(&x_sparse, w1);
    VarPtr h1 = ag::LeakyRelu(ag::SpMMAddBias(prop, xw, b1),
                              config_.leaky_relu_alpha);
    return ag::SpMMAddBias(prop, ag::MatMul(h1, w2), b2);
  };
  const bool sampled_encoder =
      config_.encoder == EncoderMode::kSampledNeighbors;

  // The sampled pairs with their row incidence, rebuilt only when the pairs
  // change: at a resample and on restore.
  ag::PairSet pairs;
  if (!dense_recon)
    pairs = SampleReconstructionPairs(proximity, config_.negatives_per_node, rng);

  AneciResult result;
  double best_mod_loss = std::numeric_limits<double>::max();
  int since_best = 0;

  TrainingWatchdog watchdog(config_.watchdog);
  const uint64_t fingerprint = ResilienceFingerprint(config_, graph);

  // Snapshot of the complete loop state at an epoch boundary (the state seen
  // at the top of epoch `next_epoch`, before any of its RNG draws).
  auto capture = [&](int next_epoch) {
    TrainingCheckpoint c;
    c.config_fingerprint = fingerprint;
    c.next_epoch = next_epoch;
    c.adam_step = optimizer.step();
    c.lr = optimizer.lr();
    c.best_mod_loss = best_mod_loss;
    c.since_best = since_best;
    c.watchdog_rollbacks = watchdog.rollbacks();
    c.watchdog_best_abs_loss = watchdog.best_abs_loss();
    c.rng = rng.state();
    c.adv_rng = adv_rng.state();
    // The pair copy, the one large block, is allocated first and in whole
    // blocks of 65,536 pairs: a resample moves the pair count by a few, so
    // a replaced snapshot's freed copy takes the next one before the
    // smaller blobs can split it, and the two are not resident together.
    constexpr size_t kPairBlock = size_t{1} << 16;
    c.pairs.reserve((pairs.size() + kPairBlock - 1) / kPairBlock * kPairBlock);
    for (const ag::PairTarget& p : pairs.pairs())
      c.pairs.push_back({p.u, p.v, p.target});
    for (const VarPtr& p : params) c.params.push_back(ToBlob(p->value()));
    for (const Matrix& m : optimizer.first_moments())
      c.opt_m.push_back(ToBlob(m));
    for (const Matrix& m : optimizer.second_moments())
      c.opt_v.push_back(ToBlob(m));
    c.history = result.history;
    return c;
  };

  auto restore = [&](const TrainingCheckpoint& c) -> Status {
    if (c.config_fingerprint != fingerprint)
      return Status::FailedPrecondition(
          "checkpoint fingerprint mismatch: snapshot was written by a "
          "different configuration or graph");
    if (c.params.size() != params.size() ||
        c.opt_m.size() != params.size() || c.opt_v.size() != params.size())
      return Status::FailedPrecondition(
          "checkpoint parameter count mismatch");
    for (size_t k = 0; k < params.size(); ++k) {
      if (!BlobShapeMatches(c.params[k], params[k]->value()) ||
          !BlobShapeMatches(c.opt_m[k], params[k]->value()) ||
          !BlobShapeMatches(c.opt_v[k], params[k]->value()))
        return Status::FailedPrecondition(
            "checkpoint tensor shape mismatch at parameter " +
            std::to_string(k));
    }
    std::vector<Matrix> m, v;
    for (size_t k = 0; k < params.size(); ++k) {
      params[k]->mutable_value() = BlobToMatrix(c.params[k]);
      m.push_back(BlobToMatrix(c.opt_m[k]));
      v.push_back(BlobToMatrix(c.opt_v[k]));
    }
    optimizer.SetMoments(std::move(m), std::move(v));
    optimizer.set_step(c.adam_step);
    optimizer.set_lr(c.lr);
    best_mod_loss = c.best_mod_loss;
    since_best = c.since_best;
    watchdog.Restore(c.watchdog_rollbacks, c.watchdog_best_abs_loss);
    rng.set_state(c.rng);
    adv_rng.set_state(c.adv_rng);
    pairs = ag::PairSet();  // Freed before its successor is built.
    std::vector<ag::PairTarget> restored;
    restored.reserve(c.pairs.size());
    for (const PairBlob& p : c.pairs) restored.push_back({p.u, p.v, p.target});
    pairs = std::move(restored);
    result.history = c.history;
    return Status::OK();
  };

  int epoch = 0;
  if (!config_.resume_from.empty()) {
    StatusOr<TrainingCheckpoint> c =
        LoadLatestCheckpoint(config_.resume_from, env);
    if (c.ok()) {
      ANECI_RETURN_IF_ERROR(restore(c.value()));
      epoch = c.value().next_epoch;
      result.resumed_from_epoch = epoch;
      ring->Append("{\"type\":\"event\",\"class\":\"det\",\"name\":"
                   "\"checkpoint_resume\",\"epoch\":" +
                   std::to_string(epoch) + "}");
    } else if (c.status().code() != StatusCode::kNotFound) {
      // Corrupt beyond the .bak fallback — surface it rather than silently
      // retraining from scratch.
      return c.status();
    }
  }

  TrainingCheckpoint last_good;  // In-memory rollback target.
  bool have_snapshot = false;
  int last_snapshot_epoch = 0;

  while (epoch < config_.epochs) {
    // The previous epoch's tape is gone; free what it did not draw.
    arena->EvictIdle();

    // Watchdog snapshot at the epoch boundary, before this epoch's RNG
    // draws, so a rollback replays the exact same trajectory modulo the
    // decayed learning rate.
    if (config_.watchdog.enabled &&
        (!have_snapshot ||
         epoch - last_snapshot_epoch >= config_.watchdog.snapshot_every)) {
      // The arena keeps the epoch's buffers resident between tapes, so
      // replaced snapshots and pair sets are freed before their successors
      // are built, keeping the two off the peak together.
      last_good = TrainingCheckpoint();
      last_good = capture(epoch);
      have_snapshot = true;
      last_snapshot_epoch = epoch;
    }

    if (!dense_recon && config_.resample_every > 0 && epoch > 0 &&
        epoch % config_.resample_every == 0) {
      pairs = ag::PairSet();
      pairs =
          SampleReconstructionPairs(proximity, config_.negatives_per_node, rng);
    }

    // Adversarial inner step: rebuild the proximity target from a budgeted
    // edge-flip perturbation drawn from the dedicated stream. The encoder
    // still propagates over the clean operator S — only the supervision
    // target moves — so the model learns memberships that survive the
    // perturbation family. All quantities are pure functions of the
    // adv_rng state captured at the epoch boundary, which makes the step
    // both watchdog-rollback-safe and checkpoint-resumable.
    const bool adv_epoch =
        adv.enabled && (adv.every <= 1 || epoch % adv.every == 0);
    SparseMatrix adv_proximity;
    const SparseMatrix* target = &proximity;
    double target_scale = two_m_scale;
    ag::PairSet adv_pairs;
    const ag::PairSet* epoch_pairs = &pairs;
    if (adv_epoch) {
      const int flips = static_cast<int>(
          std::lround(adv.budget * graph.num_edges()));
      Graph perturbed;
      if (adv.kind == AdversarialTrainingOptions::Kind::kDice &&
          graph.has_labels()) {
        DiceOptions dice;
        dice.budget = adv.budget;
        perturbed = DiceAttack(graph, dice, adv_rng).attacked;
      } else {
        perturbed = BudgetedEdgeFlips(graph, flips, adv_rng);
      }
      adv_proximity = HighOrderProximity(perturbed, config_.proximity);
      target = &adv_proximity;
      target_scale = adv_proximity.SumAll();
      if (!dense_recon) {
        adv_pairs = SampleReconstructionPairs(
            adv_proximity, config_.negatives_per_node, adv_rng);
        epoch_pairs = &adv_pairs;
      }
    }

    optimizer.ZeroGrad();
    // The sampled operator must stay alive through Backward().
    SparseMatrix s_epoch;
    std::optional<ag::SparseOperator> epoch_op;
    if (sampled_encoder) {
      s_epoch = SampleSageOperator(graph, config_.sage, rng);
      epoch_op.emplace(&s_epoch);
    }
    VarPtr z = forward(sampled_encoder ? *epoch_op : s_op);
    VarPtr p = ag::RowSoftmax(z);
    VarPtr q = config_.modularity_variant == ModularityVariant::kProduct
                   ? GeneralizedModularityLoss(target, p)
                   : GeneralizedModularityMinLoss(target, p);
    VarPtr recon = dense_recon ? DenseReconstructionLoss(target, p)
                               : SampledReconstructionLoss(p, *epoch_pairs);
    // Balance the two objectives at O(N) magnitude each: Q~ carries a
    // 1/(2M~) normalisation that would otherwise make its gradient O(1/N^2)
    // against the pair-summed reconstruction, so the loss uses the
    // un-normalised trace form (2M~ * Q~) and the per-pair mean of L_R
    // scaled back to N.
    const double recon_pairs =
        dense_recon ? static_cast<double>(n) * n
                    : static_cast<double>(epoch_pairs->size());
    VarPtr loss =
        ag::Add(ag::Scale(q, -config_.beta1 * target_scale),
                ag::Scale(recon, config_.beta2 * n / recon_pairs));
    ag::Backward(loss);

    double loss_value = loss->value()(0, 0);
    if (config_.divergence_fault_hook && config_.divergence_fault_hook(epoch))
      loss_value = std::numeric_limits<double>::quiet_NaN();

    const WatchdogVerdict verdict = watchdog.Inspect(loss_value, params);
    if (verdict != WatchdogVerdict::kHealthy) {
      if (!have_snapshot || !watchdog.RecordRollback())
        return Status::Internal(
            std::string("training diverged (") + WatchdogVerdictName(verdict) +
            " at epoch " + std::to_string(epoch) + ") after " +
            std::to_string(watchdog.rollbacks()) +
            " rollback(s); lr reached " + std::to_string(optimizer.lr()));
      // Roll back to the last good boundary and retry with a decayed
      // learning rate. The restore would also rewind the rollback
      // accounting, so it is re-applied afterwards.
      const int rollbacks_taken = watchdog.rollbacks();
      ANECI_RETURN_IF_ERROR(restore(last_good));
      watchdog.Restore(rollbacks_taken, watchdog.best_abs_loss());
      const double decayed_lr = optimizer.lr() * config_.watchdog.lr_backoff;
      optimizer.set_lr(decayed_lr);
      last_good.lr = decayed_lr;
      last_good.watchdog_rollbacks = rollbacks_taken;
      rollbacks_taken_counter->Increment();
      ring->Append("{\"type\":\"event\",\"class\":\"det\",\"name\":"
                   "\"watchdog_rollback\",\"epoch\":" + std::to_string(epoch) +
                   ",\"verdict\":\"" + WatchdogVerdictName(verdict) +
                   "\",\"resumed_epoch\":" +
                   std::to_string(last_good.next_epoch) +
                   ",\"lr\":" + JsonDouble(decayed_lr) + "}");
      epoch = last_good.next_epoch;
      continue;
    }

    optimizer.Step();

    AneciEpochStats stats;
    stats.epoch = epoch;
    stats.loss = loss_value;
    stats.modularity = q->value()(0, 0);
    stats.rigidity = Rigidity(p->value());
    result.history.push_back(stats);
    epochs_run->Increment();
    last_loss->Set(loss_value);
    ring->Append("{\"type\":\"epoch\",\"class\":\"det\",\"epoch\":" +
                 std::to_string(epoch) +
                 ",\"loss\":" + JsonDouble(loss_value) +
                 ",\"modularity\":" + JsonDouble(stats.modularity) +
                 ",\"rigidity\":" + JsonDouble(stats.rigidity) +
                 ",\"grad_norm\":" + JsonDouble(GradNorm(params)) +
                 ",\"lr\":" + JsonDouble(optimizer.lr()) + "}");
    if (on_epoch) on_epoch(stats, z->value(), p->value());

    bool stop_early = false;
    if (config_.early_stop_patience > 0) {
      const double mod_loss = -stats.modularity;
      if (mod_loss < best_mod_loss - config_.early_stop_min_delta) {
        best_mod_loss = mod_loss;
        since_best = 0;
      } else if (++since_best >= config_.early_stop_patience) {
        stop_early = true;
      }
    }

    ++epoch;

    if (!config_.checkpoint_dir.empty() && config_.checkpoint_every > 0 &&
        (epoch % config_.checkpoint_every == 0 || epoch == config_.epochs ||
         stop_early)) {
      ANECI_RETURN_IF_ERROR(
          SaveRotatingCheckpoint(capture(epoch), config_.checkpoint_dir, env));
    }

    if (stop_early) {
      early_stops->Increment();
      ring->Append("{\"type\":\"event\",\"class\":\"det\",\"name\":"
                   "\"early_stop\",\"epoch\":" + std::to_string(epoch - 1) +
                   "}");
      break;
    }
  }

  // Final forward pass with trained weights; inference always uses the
  // deterministic full-graph operator.
  TraceSpan final_span("final_forward");  // Path: train/aneci/final_forward.
  VarPtr z = forward(s_op);
  result.z = z->value();
  result.p = RowSoftmax(result.z);
  result.watchdog_rollbacks = watchdog.rollbacks();
  result.final_lr = optimizer.lr();
  arena_fresh->Set(static_cast<double>(arena->fresh_bytes()));
  arena_reused->Set(static_cast<double>(arena->reused_bytes()));
  return result;
}

AneciResult Aneci::Train(const Graph& graph,
                         const EpochCallback& on_epoch) const {
  StatusOr<AneciResult> result = TrainWithResilience(graph, on_epoch);
  ANECI_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace aneci
