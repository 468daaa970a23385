// End-to-end training resilience: kill-and-resume bit-identity (the
// acceptance criterion — a run interrupted at epoch k and resumed from its
// checkpoint must produce byte-identical final embeddings to an
// uninterrupted run, at any thread count), watchdog rollback + LR backoff on
// injected NaN losses, bounded retry budgets, and recovery from corrupted
// checkpoint directories.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>

#include "core/aneci.h"
#include "data/sbm.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

Graph SmallSbm(uint64_t seed, int n = 80, int classes = 3) {
  SbmOptions opt;
  opt.num_nodes = n;
  opt.num_classes = classes;
  opt.num_edges = 3 * n;
  opt.intra_fraction = 0.9;
  opt.attribute_dim = 20;
  opt.words_per_node = 6;
  opt.topic_words_per_class = 8;
  Rng rng(seed);
  return GenerateSbm(opt, rng);
}

AneciConfig TinyConfig(int epochs = 12) {
  AneciConfig cfg;
  cfg.hidden_dim = 16;
  cfg.embed_dim = 4;
  cfg.epochs = epochs;
  cfg.proximity.order = 2;
  return cfg;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  Env* env = Env::Default();
  EXPECT_TRUE(env->CreateDir(dir).ok());
  // Clear leftovers from previous runs of the same test.
  if (env->FileExists(CheckpointBinPath(dir)))
    EXPECT_TRUE(env->RemoveFile(CheckpointBinPath(dir)).ok());
  if (env->FileExists(CheckpointBakPath(dir)))
    EXPECT_TRUE(env->RemoveFile(CheckpointBakPath(dir)).ok());
  return dir;
}

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

// Trains to `interrupt_epoch`, "crashes", then resumes to `total_epochs`;
// the result must be byte-identical to an uninterrupted `total_epochs` run.
void CheckKillAndResume(const AneciConfig& base, const Graph& graph,
                        int interrupt_epoch, int total_epochs,
                        const std::string& dir_name) {
  const std::string dir = FreshDir(dir_name);

  AneciConfig uninterrupted = base;
  uninterrupted.epochs = total_epochs;
  StatusOr<AneciResult> full = Aneci(uninterrupted).TrainWithResilience(graph);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Phase 1: train with checkpointing, "killed" at interrupt_epoch (the
  // final snapshot a real crash would leave behind is the one written when
  // the epoch budget ran out).
  AneciConfig phase1 = base;
  phase1.epochs = interrupt_epoch;
  phase1.checkpoint_dir = dir;
  phase1.checkpoint_every = 5;
  StatusOr<AneciResult> partial = Aneci(phase1).TrainWithResilience(graph);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  // Phase 2: a fresh process resumes from disk and finishes the budget.
  AneciConfig phase2 = base;
  phase2.epochs = total_epochs;
  phase2.checkpoint_dir = dir;
  phase2.checkpoint_every = 5;
  phase2.resume_from = dir;
  StatusOr<AneciResult> resumed = Aneci(phase2).TrainWithResilience(graph);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().resumed_from_epoch, interrupt_epoch);

  EXPECT_TRUE(BytesEqual(full.value().z, resumed.value().z))
      << "resumed embeddings diverge from the uninterrupted run";
  EXPECT_TRUE(BytesEqual(full.value().p, resumed.value().p));
  // The stitched history matches epoch-for-epoch, bitwise.
  ASSERT_EQ(full.value().history.size(), resumed.value().history.size());
  for (size_t e = 0; e < full.value().history.size(); ++e) {
    EXPECT_EQ(full.value().history[e].epoch, resumed.value().history[e].epoch);
    EXPECT_EQ(full.value().history[e].loss, resumed.value().history[e].loss);
  }
}

// --- Kill-and-resume --------------------------------------------------------

TEST(Resilience, KillAndResumeBitIdenticalSerial) {
  ScopedNumThreads threads(1);
  Graph g = SmallSbm(11);
  CheckKillAndResume(TinyConfig(), g, /*interrupt_epoch=*/7,
                     /*total_epochs=*/14, "resume_serial");
}

TEST(Resilience, KillAndResumeBitIdenticalFourThreads) {
  ScopedNumThreads threads(4);
  Graph g = SmallSbm(11);
  CheckKillAndResume(TinyConfig(), g, /*interrupt_epoch=*/7,
                     /*total_epochs=*/14, "resume_threads4");
}

TEST(Resilience, KillAndResumeSampledReconstructionAndEncoder) {
  // Sampled losses draw from the RNG every epoch (pair resampling and the
  // SAGE operator), so this exercises RNG-state and pair serialisation. The
  // interrupt epoch (7) deliberately straddles a resample boundary (8).
  ScopedNumThreads threads(2);
  Graph g = SmallSbm(13);
  AneciConfig cfg = TinyConfig();
  cfg.reconstruction = ReconstructionMode::kSampled;
  cfg.negatives_per_node = 3;
  cfg.resample_every = 4;
  cfg.encoder = EncoderMode::kSampledNeighbors;
  CheckKillAndResume(cfg, g, /*interrupt_epoch=*/7, /*total_epochs=*/14,
                     "resume_sampled");
}

// The trainer's epoch-arena traffic of its last run: bytes it had to
// allocate and bytes it served again from a free list.
struct ArenaTraffic {
  double fresh = 0.0;
  double reused = 0.0;
};

ArenaTraffic LastArenaTraffic() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  return {registry.GetGauge("train/arena_fresh_bytes",
                            MetricClass::kDeterministic)->Value(),
          registry.GetGauge("train/arena_reused_bytes",
                            MetricClass::kDeterministic)->Value()};
}

TEST(Resilience, SampledPairSetSurvivesResampleRollbackAndResume) {
  // The sampled pairs and their row incidence are rebuilt at each resample
  // (every 3 epochs) and on every restore. The fault at epoch 4 rolls back
  // to the snapshot at epoch 2, so the epoch-3 resample replays; phase 1
  // stops at 7, and phase 2 resumes from its checkpoint. The graph is big
  // enough that the pair loss runs in several chunks. Every epoch's tape
  // draws its buffers from the trainer's epoch arena: across the resamples,
  // the rollback and the resume they come back from it, rather than fresh,
  // and the traffic is the same at every thread count.
  Graph g = SmallSbm(17, /*n=*/600);
  AneciConfig base = TinyConfig();
  base.reconstruction = ReconstructionMode::kSampled;
  base.negatives_per_node = 3;
  base.resample_every = 3;
  base.watchdog.snapshot_every = 2;
  auto fault_once_at_4 = [](bool* fired) {
    return [fired](int epoch) {
      if (epoch != 4 || *fired) return false;
      *fired = true;
      return true;
    };
  };
  auto expect_same = [](const AneciResult& a, const AneciResult& b,
                        const char* what) {
    EXPECT_TRUE(BytesEqual(a.z, b.z)) << what;
    EXPECT_TRUE(BytesEqual(a.p, b.p)) << what;
    ASSERT_EQ(a.history.size(), b.history.size()) << what;
    for (size_t e = 0; e < a.history.size(); ++e) {
      EXPECT_EQ(std::memcmp(&a.history[e].loss, &b.history[e].loss,
                            sizeof(double)),
                0)
          << what << " loss, epoch " << e;
      EXPECT_EQ(std::memcmp(&a.history[e].modularity,
                            &b.history[e].modularity, sizeof(double)),
                0)
          << what << " modularity, epoch " << e;
    }
  };

  std::vector<AneciResult> uninterrupted;
  std::vector<ArenaTraffic> traffic;
  for (int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    bool fired = false;
    AneciConfig full = base;
    full.epochs = 10;
    full.divergence_fault_hook = fault_once_at_4(&fired);
    StatusOr<AneciResult> a = Aneci(full).TrainWithResilience(g);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(a.value().watchdog_rollbacks, 1);
    const ArenaTraffic full_traffic = LastArenaTraffic();

    const std::string dir =
        FreshDir("pairset_resume_t" + std::to_string(threads));
    bool fired_phase1 = false;
    AneciConfig phase1 = base;
    phase1.epochs = 7;
    phase1.checkpoint_dir = dir;
    phase1.checkpoint_every = 5;
    phase1.divergence_fault_hook = fault_once_at_4(&fired_phase1);
    StatusOr<AneciResult> partial = Aneci(phase1).TrainWithResilience(g);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_EQ(partial.value().watchdog_rollbacks, 1);

    AneciConfig phase2 = base;
    phase2.epochs = 10;
    phase2.checkpoint_dir = dir;
    phase2.checkpoint_every = 5;
    phase2.resume_from = dir;
    StatusOr<AneciResult> resumed = Aneci(phase2).TrainWithResilience(g);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().resumed_from_epoch, 7);
    const ArenaTraffic resumed_traffic = LastArenaTraffic();
    // Each run allocates one epoch's working set and no more: the three
    // resamples and the rollback of the full run draw nothing new, and the
    // resumed run's first epoch allocates what the full run's did.
    EXPECT_GT(full_traffic.fresh, 0.0);
    EXPECT_EQ(full_traffic.fresh, resumed_traffic.fresh);
    EXPECT_GT(full_traffic.reused, 8.0 * full_traffic.fresh);
    EXPECT_GT(resumed_traffic.reused, resumed_traffic.fresh);
    traffic.push_back(full_traffic);
    traffic.push_back(resumed_traffic);
    expect_same(a.value(), resumed.value(), "resumed vs uninterrupted");
    uninterrupted.push_back(std::move(a).value());
  }
  expect_same(uninterrupted[0], uninterrupted[1], "1 vs 4 threads");
  ASSERT_EQ(traffic.size(), 4u);
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(traffic[run].fresh, traffic[run + 2].fresh) << "1 vs 4 threads";
    EXPECT_EQ(traffic[run].reused, traffic[run + 2].reused)
        << "1 vs 4 threads";
  }
}

TEST(Resilience, ResumeWithSameBudgetReproducesCheckpointedRun) {
  // Resuming a finished run trains zero extra epochs; the final forward pass
  // over restored weights must reproduce the original embeddings exactly —
  // the "rollback restores bit-identical parameters" guarantee, observed
  // through the embedding.
  const std::string dir = FreshDir("resume_noop");
  Graph g = SmallSbm(17);
  AneciConfig cfg = TinyConfig(10);
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 10;
  StatusOr<AneciResult> first = Aneci(cfg).TrainWithResilience(g);
  ASSERT_TRUE(first.ok());
  AneciConfig again = cfg;
  again.resume_from = dir;
  StatusOr<AneciResult> second = Aneci(again).TrainWithResilience(g);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().resumed_from_epoch, 10);
  EXPECT_TRUE(BytesEqual(first.value().z, second.value().z));
}

TEST(Resilience, ResumeRejectsFingerprintMismatch) {
  const std::string dir = FreshDir("resume_mismatch");
  Graph g = SmallSbm(19);
  AneciConfig cfg = TinyConfig(6);
  cfg.checkpoint_dir = dir;
  ASSERT_TRUE(Aneci(cfg).TrainWithResilience(g).ok());
  AneciConfig other = cfg;
  other.hidden_dim = 24;  // Structurally different model.
  other.resume_from = dir;
  StatusOr<AneciResult> resumed = Aneci(other).TrainWithResilience(g);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("fingerprint"), std::string::npos);
}

TEST(Resilience, ResumeFromCorruptDirFallsBackToPreviousSnapshot) {
  const std::string dir = FreshDir("resume_corrupt");
  Graph g = SmallSbm(23);
  AneciConfig cfg = TinyConfig(10);
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 5;  // Writes snapshots at epochs 5 and 10.
  ASSERT_TRUE(Aneci(cfg).TrainWithResilience(g).ok());
  // Corrupt the newest snapshot; resume must fall back to epoch 5, not load
  // garbage and not retrain from scratch.
  {
    std::fstream f(CheckpointBinPath(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    const char junk = '\x7f';
    f.write(&junk, 1);
  }
  AneciConfig resume = cfg;
  resume.resume_from = dir;
  StatusOr<AneciResult> resumed = Aneci(resume).TrainWithResilience(g);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().resumed_from_epoch, 5);
}

TEST(Resilience, MissingCheckpointStartsFresh) {
  const std::string dir = FreshDir("resume_missing");
  Graph g = SmallSbm(29);
  AneciConfig cfg = TinyConfig(6);
  cfg.resume_from = dir;  // Empty directory.
  StatusOr<AneciResult> result = Aneci(cfg).TrainWithResilience(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().resumed_from_epoch, -1);
  EXPECT_EQ(result.value().history.size(), 6u);
}

// --- Watchdog ---------------------------------------------------------------

TEST(Resilience, WatchdogEnabledIsBitIdenticalOnHealthyRun) {
  Graph g = SmallSbm(31);
  AneciConfig with = TinyConfig();
  with.watchdog.enabled = true;
  AneciConfig without = TinyConfig();
  without.watchdog.enabled = false;
  StatusOr<AneciResult> a = Aneci(with).TrainWithResilience(g);
  StatusOr<AneciResult> b = Aneci(without).TrainWithResilience(g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BytesEqual(a.value().z, b.value().z));
  EXPECT_EQ(a.value().watchdog_rollbacks, 0);
}

TEST(Resilience, InjectedNanTriggersRollbackAndLrBackoff) {
  Graph g = SmallSbm(37);
  AneciConfig cfg = TinyConfig(12);
  cfg.watchdog.snapshot_every = 4;
  bool fired = false;
  cfg.divergence_fault_hook = [&fired](int epoch) {
    if (epoch == 9 && !fired) {
      fired = true;
      return true;
    }
    return false;
  };
  StatusOr<AneciResult> result = Aneci(cfg).TrainWithResilience(g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(fired);
  EXPECT_EQ(result.value().watchdog_rollbacks, 1);
  // One rollback halves the learning rate.
  EXPECT_DOUBLE_EQ(result.value().final_lr, cfg.lr * cfg.watchdog.lr_backoff);
  // The poisoned epoch never reaches the history or the embeddings.
  for (const AneciEpochStats& s : result.value().history)
    EXPECT_TRUE(std::isfinite(s.loss)) << "epoch " << s.epoch;
  for (int64_t i = 0; i < result.value().z.size(); ++i)
    ASSERT_TRUE(std::isfinite(result.value().z.data()[i]));
  // All epochs were eventually trained despite the mid-run rollback.
  EXPECT_EQ(result.value().history.size(), 12u);
}

TEST(Resilience, PersistentDivergenceExhaustsBudgetAndSurfacesStatus) {
  Graph g = SmallSbm(41);
  AneciConfig cfg = TinyConfig(12);
  cfg.watchdog.max_rollbacks = 2;
  cfg.watchdog.snapshot_every = 4;
  // Every attempt at epoch >= 6 diverges, whatever the learning rate.
  cfg.divergence_fault_hook = [](int epoch) { return epoch >= 6; };
  StatusOr<AneciResult> result = Aneci(cfg).TrainWithResilience(g);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("diverged"), std::string::npos);
  EXPECT_NE(result.status().message().find("non-finite loss"),
            std::string::npos);
}

TEST(Resilience, WatchdogStateSurvivesCheckpointRoundtrip) {
  // A run that rolls back, then checkpoints, then resumes must carry the
  // decayed learning rate through the checkpoint.
  const std::string dir = FreshDir("watchdog_resume");
  Graph g = SmallSbm(43);
  AneciConfig cfg = TinyConfig(10);
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 5;
  cfg.watchdog.snapshot_every = 2;
  bool fired = false;
  cfg.divergence_fault_hook = [&fired](int epoch) {
    if (epoch == 3 && !fired) {
      fired = true;
      return true;
    }
    return false;
  };
  StatusOr<AneciResult> first = Aneci(cfg).TrainWithResilience(g);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().watchdog_rollbacks, 1);

  AneciConfig resume = TinyConfig(14);
  resume.checkpoint_dir = dir;
  resume.checkpoint_every = 5;
  resume.resume_from = dir;
  StatusOr<AneciResult> second = Aneci(resume).TrainWithResilience(g);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().resumed_from_epoch, 10);
  EXPECT_DOUBLE_EQ(second.value().final_lr,
                   cfg.lr * cfg.watchdog.lr_backoff);
}

}  // namespace
}  // namespace aneci
