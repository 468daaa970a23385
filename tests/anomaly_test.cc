#include <gtest/gtest.h>

#include "anomaly/anomaly_score.h"
#include "anomaly/isolation_forest.h"
#include "anomaly/outlier_injection.h"
#include "data/sbm.h"
#include "tasks/metrics.h"
#include "util/rng.h"

namespace aneci {
namespace {

Graph LabeledSbm(uint64_t seed) {
  SbmOptions opt;
  opt.num_nodes = 200;
  opt.num_classes = 4;
  opt.num_edges = 800;
  opt.intra_fraction = 0.9;
  opt.attribute_dim = 40;
  opt.words_per_node = 8;
  opt.topic_words_per_class = 10;
  Rng rng(seed);
  return GenerateSbm(opt, rng);
}

TEST(OutlierInjection, CountsMatchFraction) {
  Graph g = LabeledSbm(1);
  Rng rng(2);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kStructural, 0.05, rng);
  EXPECT_EQ(res.outlier_ids.size(), 10u);
  int flagged = 0;
  for (int f : res.is_outlier) flagged += f;
  EXPECT_EQ(flagged, 10);
}

TEST(OutlierInjection, StructuralOutliersConnectAcrossCommunities) {
  Graph g = LabeledSbm(3);
  Rng rng(4);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kStructural, 0.05, rng);
  for (int node : res.outlier_ids) {
    for (int nbr : res.graph.Neighbors(node)) {
      // A rewired neighbour is either itself an outlier (rewired later) or
      // belongs to a different community.
      if (!res.is_outlier[nbr])
        EXPECT_NE(res.graph.labels()[node], res.graph.labels()[nbr]);
    }
  }
}

TEST(OutlierInjection, StructuralPreservesDegreeApproximately) {
  Graph g = LabeledSbm(5);
  Rng rng(6);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kStructural, 0.05, rng);
  // Rewiring preserves each outlier's own degree; a later outlier can add a
  // couple of incident edges, so allow slack but no wholesale inflation.
  for (int node : res.outlier_ids)
    EXPECT_LE(res.graph.Degree(node), g.Degree(node) + 4);
}

TEST(OutlierInjection, AttributeOutliersKeepStructure) {
  Graph g = LabeledSbm(7);
  Rng rng(8);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kAttribute, 0.05, rng);
  EXPECT_EQ(res.graph.edges(), g.edges());
  // At least one outlier's attribute row actually changed.
  int changed = 0;
  for (int node : res.outlier_ids) {
    for (int c = 0; c < g.attribute_dim(); ++c) {
      if (res.graph.attributes()(node, c) != g.attributes()(node, c)) {
        ++changed;
        break;
      }
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(OutlierInjection, CombinedChangesBoth) {
  Graph g = LabeledSbm(9);
  Rng rng(10);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kCombined, 0.05, rng);
  EXPECT_NE(res.graph.edges(), g.edges());
}

TEST(OutlierInjection, AttributeKindFallsBackWithoutAttributes) {
  SbmOptions opt;
  opt.num_nodes = 100;
  opt.num_classes = 2;
  opt.num_edges = 300;
  opt.attribute_dim = 0;
  Rng rng(11);
  Graph g = GenerateSbm(opt, rng);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kAttribute, 0.05, rng);
  // Falls back to structural rewiring: edges must change.
  EXPECT_NE(res.graph.edges(), g.edges());
}

TEST(OutlierInjection, KindNames) {
  EXPECT_STREQ(OutlierKindName(OutlierKind::kStructural), "S");
  EXPECT_STREQ(OutlierKindName(OutlierKind::kAttribute), "A");
  EXPECT_STREQ(OutlierKindName(OutlierKind::kCombined), "S&A");
  EXPECT_STREQ(OutlierKindName(OutlierKind::kMix), "Mix");
}

// --- Scores -------------------------------------------------------------------

TEST(MembershipEntropy, UniformRowsScoreHighest) {
  Matrix p = Matrix::FromRows({{1.0, 0.0}, {0.5, 0.5}, {0.9, 0.1}});
  std::vector<double> s = MembershipEntropyScores(p);
  EXPECT_NEAR(s[0], 0.0, 1e-9);
  EXPECT_NEAR(s[1], std::log(2.0), 1e-9);
  EXPECT_GT(s[1], s[2]);
  EXPECT_GT(s[2], s[0]);
}

TEST(IsolationForestTest, DetectsPlantedOutliersInGaussianBlob) {
  Rng rng(12);
  const int n = 300, outliers = 15;
  Matrix pts(n, 4);
  std::vector<int> labels(n, 0);
  for (int i = 0; i < n; ++i) {
    const bool is_outlier = i < outliers;
    labels[i] = is_outlier;
    for (int c = 0; c < 4; ++c)
      pts(i, c) = is_outlier ? rng.Uniform(6.0, 10.0) : rng.NextGaussian();
  }
  IsolationForest forest;
  forest.Fit(pts, rng);
  std::vector<double> scores = forest.Score(pts);
  EXPECT_GT(AreaUnderRoc(scores, labels), 0.95);
}

TEST(IsolationForestTest, ScoresWithinUnitInterval) {
  Rng rng(13);
  Matrix pts = Matrix::RandomNormal(100, 3, 1.0, rng);
  IsolationForest forest;
  forest.Fit(pts, rng);
  for (double s : forest.Score(pts)) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(IsolationForestTest, ConstantDataDoesNotCrash) {
  Rng rng(14);
  Matrix pts(50, 2, 3.14);
  IsolationForest forest;
  forest.Fit(pts, rng);
  std::vector<double> scores = forest.Score(pts);
  EXPECT_EQ(scores.size(), 50u);
}

}  // namespace
}  // namespace aneci
