// End-to-end pipelines across modules: generate -> (attack | inject) ->
// embed -> evaluate, including IO round trips. These mirror what the bench
// harness and CLI do, at test-sized scales.
#include <gtest/gtest.h>

#include "analysis/defense_score.h"
#include "anomaly/outlier_injection.h"
#include "attack/fga.h"
#include "attack/random_attack.h"
#include "attack/surrogate.h"
#include "core/aneci_plus.h"
#include "data/datasets.h"
#include "embed/aneci_embedder.h"
#include "embed/gae.h"
#include "embed/gcn_classifier.h"
#include "graph/graph_io.h"
#include "tasks/community.h"
#include "tasks/metrics.h"
#include "tasks/node_classification.h"

namespace aneci {
namespace {

Dataset SmallCora(uint64_t seed) {
  StatusOr<Dataset> ds = MakeDataset("cora", seed, 0.08);
  ANECI_CHECK(ds.ok());
  return std::move(ds).value();
}

AneciConfig FastAneci() {
  AneciConfig cfg;
  cfg.hidden_dim = 32;
  cfg.embed_dim = 8;
  cfg.epochs = 60;
  return cfg;
}

TEST(Integration, RobustnessPipelineAneciBeatsGaeDefenseScore) {
  Dataset ds = SmallCora(1);
  Rng rng(2);
  RandomAttackResult attack = RandomAttack(ds.graph, 0.3, rng);
  attack.attacked.SetLabels(ds.graph.labels());

  Aneci aneci_model(FastAneci());
  Matrix z_aneci = aneci_model.Train(attack.attacked).z;

  Gae::Options gopt;
  gopt.epochs = 60;
  Gae gae(gopt);
  EmbedOptions eo;
  eo.rng = &rng;
  Matrix z_gae = gae.Embed(attack.attacked, eo);

  const double ds_aneci =
      DefenseScore(attack.attacked, attack.fake_edges, z_aneci);
  const double ds_gae = DefenseScore(attack.attacked, attack.fake_edges, z_gae);
  // The paper's Fig. 2 claim, end to end.
  EXPECT_GT(ds_aneci, ds_gae);
  EXPECT_GT(ds_aneci, 1.2);
}

TEST(Integration, AneciPlusDenoisingKeepsAccuracyUnderNoise) {
  Dataset ds = SmallCora(3);
  Rng rng(4);
  RandomAttackResult attack = RandomAttack(ds.graph, 0.4, rng);
  Dataset poisoned = ds;
  poisoned.graph = attack.attacked;
  poisoned.graph.SetLabels(ds.graph.labels());

  AneciPlusConfig cfg;
  cfg.base = FastAneci();
  AneciPlusResult plus = TrainAneciPlus(poisoned.graph, cfg);
  EXPECT_GT(plus.edges_removed, 0);

  // Denoising must catch a healthy share of the fakes.
  int caught = 0;
  for (const Edge& e : attack.fake_edges)
    if (!plus.denoised_graph.HasEdge(e.u, e.v)) ++caught;
  EXPECT_GT(static_cast<double>(caught) / attack.fake_edges.size(), 0.3);

  // And the resulting embedding still classifies clearly above chance.
  Rng eval_rng(5);
  const double acc =
      EvaluateEmbedding(plus.stage2.z, poisoned, eval_rng).accuracy;
  EXPECT_GT(acc, 1.5 / ds.graph.num_classes());
}

TEST(Integration, AnomalyPipelineEntropyDetectsStructuralOutliers) {
  Dataset ds = SmallCora(6);
  Rng rng(7);
  OutlierInjectionResult injected =
      InjectOutliers(ds.graph, OutlierKind::kStructural, 0.05, rng);
  AneciConfig cfg = FastAneci();
  cfg.early_stop_patience = 20;
  AneciEmbedder model(cfg);
  EmbedOptions eo;
  eo.rng = &rng;
  std::vector<double> scores = model.ScoreAnomalies(injected.graph, eo);
  EXPECT_GT(AreaUnderRoc(scores, injected.is_outlier), 0.55);
}

TEST(Integration, FgaEndToEndReducesGcnTargetAccuracy) {
  Dataset ds = SmallCora(8);
  Rng rng(9);
  std::vector<int> targets = SelectAttackTargets(ds, 5, 8, rng);

  GcnClassifier::Options gopt;
  gopt.epochs = 80;
  GcnClassifier clean_model(gopt);
  Rng fit_rng(10);
  clean_model.Fit(ds, fit_rng);
  const double clean_acc = clean_model.Accuracy(ds, targets);

  FgaOptions fga;
  fga.perturbations_per_target = 4;
  Graph attacked = FgaAttack(ds, targets, fga, rng);
  Dataset poisoned = ds;
  poisoned.graph = attacked;
  poisoned.graph.SetLabels(ds.graph.labels());
  GcnClassifier attacked_model(gopt);
  Rng fit_rng2(10);
  attacked_model.Fit(poisoned, fit_rng2);
  const double attacked_acc = attacked_model.Accuracy(poisoned, targets);

  EXPECT_LE(attacked_acc, clean_acc + 1e-9);
}

TEST(Integration, IoRoundTripPreservesTrainingResult) {
  Dataset ds = SmallCora(11);
  const std::string path = testing::TempDir() + "/integration_graph.txt";
  ASSERT_TRUE(SaveGraph(ds.graph, path).ok());
  StatusOr<Graph> loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());

  AneciConfig cfg = FastAneci();
  cfg.epochs = 20;
  Aneci model(cfg);
  Matrix z_mem = model.Train(ds.graph).z;
  Matrix z_disk = model.Train(loaded.value()).z;
  ASSERT_EQ(z_mem.rows(), z_disk.rows());
  for (int64_t i = 0; i < z_mem.size(); ++i)
    EXPECT_NEAR(z_mem.data()[i], z_disk.data()[i], 1e-9);
}

TEST(Integration, CommunityPipelineOnPolarizedGraph) {
  StatusOr<Dataset> ds = MakeDataset("polblogs", 12, 0.15);
  ASSERT_TRUE(ds.ok());
  Rng rng(13);
  AneciConfig cfg = FastAneci();
  cfg.embed_dim = 2;
  cfg.epochs = 150;
  AneciEmbedder model(cfg);
  EmbedOptions eo;
  eo.rng = &rng;
  model.Embed(ds.value().graph, eo);
  CommunityResult comm =
      DetectCommunitiesArgmax(ds.value().graph, model.last_membership());
  EXPECT_GT(comm.nmi_vs_labels, 0.7);
  EXPECT_GT(comm.modularity, 0.3);
}

TEST(Integration, KMeansCommunitiesOnAneciEmbedding) {
  Dataset ds = SmallCora(14);
  Rng rng(15);
  Aneci model(FastAneci());
  Matrix z = model.Train(ds.graph).z;
  const int k = ds.graph.num_classes();
  CommunityResult km = DetectCommunitiesKMeans(ds.graph, z, k, rng);
  // The baselines' protocol (k-means++ on the embedding) must find the
  // planted structure in AnECI's own embedding too.
  EXPECT_EQ(static_cast<int>(km.assignment.size()), ds.graph.num_nodes());
  EXPECT_LE(km.num_communities, k);
  EXPECT_GT(km.modularity, 0.4);
  EXPECT_GT(km.nmi_vs_labels, 0.4);
}

TEST(Integration, SampledEncoderMatchesFullEncoderQuality) {
  Dataset ds = SmallCora(16);
  Rng rng(17);
  AneciConfig full_cfg = FastAneci();
  AneciConfig sage_cfg = FastAneci();
  sage_cfg.encoder = EncoderMode::kSampledNeighbors;
  sage_cfg.sage.fanout = 5;

  Aneci full_model(full_cfg), sage_model(sage_cfg);
  Matrix z_full = full_model.Train(ds.graph).z;
  Matrix z_sage = sage_model.Train(ds.graph).z;
  Rng e1(18), e2(18);
  const double acc_full = EvaluateEmbedding(z_full, ds, e1).accuracy;
  const double acc_sage = EvaluateEmbedding(z_sage, ds, e2).accuracy;
  EXPECT_GT(acc_sage, acc_full - 0.2);  // Sampling costs little quality.
}

}  // namespace
}  // namespace aneci
