// Golden pin for AnECI training: FNV-1a hashes of every epoch's history
// record and of the final Z and P, on a small attributed SBM, for the four
// training paths — sampled and dense reconstruction, the sampled-neighbour
// encoder, and the attribute-free (identity X) graph. Any change to a single
// bit of a training trajectory fails here; a change that is meant to move
// the numbers must re-pin the table and say why.
//
// Results are bit-identical at every thread count within one kernel backend
// but only ULP-close across backends (linalg/kernels/kernels.h), so the table
// holds one row per backend and the test checks the process's active one at
// 1 and 4 threads. The kernels label runs it under both backends in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/aneci.h"
#include "data/sbm.h"
#include "linalg/kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

void Mix(uint64_t* h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

uint64_t HashResult(const AneciResult& r) {
  uint64_t h = 1469598103934665603ULL;
  for (const AneciEpochStats& s : r.history) {
    Mix(&h, &s.epoch, sizeof(s.epoch));
    Mix(&h, &s.loss, sizeof(s.loss));
    Mix(&h, &s.modularity, sizeof(s.modularity));
    Mix(&h, &s.rigidity, sizeof(s.rigidity));
  }
  for (const Matrix* m : {&r.z, &r.p}) {
    const int dims[2] = {m->rows(), m->cols()};
    Mix(&h, dims, sizeof(dims));
    Mix(&h, m->data(), sizeof(double) * m->size());
  }
  return h;
}

Graph Sbm(int attribute_dim) {
  SbmOptions opt;
  opt.num_nodes = 400;
  opt.num_classes = 3;
  opt.num_edges = 1200;
  opt.intra_fraction = 0.85;
  opt.attribute_dim = attribute_dim;
  opt.words_per_node = 6;
  opt.topic_words_per_class = 10;
  Rng rng(2718);
  return GenerateSbm(opt, rng);
}

struct Case {
  const char* name;
  bool attributes;
  AneciConfig config;
};

std::vector<Case> Cases() {
  AneciConfig base;
  base.hidden_dim = 16;
  base.embed_dim = 4;
  base.epochs = 9;
  base.proximity.order = 2;
  base.seed = 31;

  AneciConfig sampled = base;
  sampled.reconstruction = ReconstructionMode::kSampled;
  sampled.negatives_per_node = 3;
  sampled.resample_every = 4;

  AneciConfig dense = base;
  dense.reconstruction = ReconstructionMode::kDense;

  AneciConfig encoder = sampled;
  encoder.encoder = EncoderMode::kSampledNeighbors;

  return {{"sampled", true, sampled},
          {"dense", true, dense},
          {"sampled_encoder", true, encoder},
          {"identity_x", false, sampled}};
}

// Pinned from the trainer before it drew its buffers from an epoch arena
// and its encoder backward from prebuilt transposes; both changes kept
// every bit. Order follows Cases().
const std::map<std::string, std::vector<uint64_t>>& Golden() {
  static const auto* golden = new std::map<std::string, std::vector<uint64_t>>{
      {"scalar",
       {0xe0761ac2ce5e1804ULL, 0x4b0ac0af985718baULL, 0x6630811f6b732b94ULL,
        0x5911feb7c3f9bed7ULL}},
      {"avx2",
       {0x58d14ef7cc9dd62aULL, 0x01f2435b777cc1f6ULL, 0xd7e59739bf8bc756ULL,
        0xb851de4474229155ULL}},
  };
  return *golden;
}

TEST(TrainingGolden, HistoryZAndPMatchThePinnedHashes) {
  const std::string backend = kernels::ActiveName();
  const auto row = Golden().find(backend);
  ASSERT_NE(row, Golden().end()) << "no golden row for backend " << backend;
  const Graph attributed = Sbm(/*attribute_dim=*/30);
  const Graph plain = Sbm(/*attribute_dim=*/0);
  ASSERT_FALSE(plain.has_attributes());
  const std::vector<Case> cases = Cases();
  for (int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    for (size_t i = 0; i < cases.size(); ++i) {
      const Graph& g = cases[i].attributes ? attributed : plain;
      const AneciResult r = Aneci(cases[i].config).Train(g);
      ASSERT_EQ(r.history.size(),
                static_cast<size_t>(cases[i].config.epochs));
      EXPECT_EQ(HashResult(r), row->second[i])
          << cases[i].name << " on " << backend << " at " << threads
          << " thread(s): 0x" << std::hex << HashResult(r);
    }
  }
}

}  // namespace
}  // namespace aneci
