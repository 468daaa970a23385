// Hot-swap concurrency: N reader threads hammer a QueryEngine while a
// writer swaps snapshots under them. Every artifact field is derived from
// its snapshot's version number, so any torn read — a response mixing
// fields from two snapshots — trips an invariant check. Run under TSan in
// CI (tools/ci.sh stage 2) to also catch data races the invariants miss.
// Also covers the ANSV artifact format itself: roundtrips, corruption
// rejection, and snapshot lifetime across swaps (the prefix/bit-flip
// battery shared with the other binary formats is in
// format_integrity_test.cc).
#include "serve/model_snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_artifact.h"
#include "serve/query_engine.h"
#include "util/byteio.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace aneci::serve {
namespace {

constexpr int kNodes = 16;
constexpr int kDim = 8;

/// Every field is a function of `version`, so a response whose fields
/// disagree with its reported version proves a torn read.
ModelArtifact VersionedArtifact(uint64_t version) {
  const double v = static_cast<double>(version);
  ModelArtifact artifact;
  artifact.num_nodes = kNodes;
  artifact.embed_dim = kDim;
  artifact.num_classes = 0;
  artifact.z = Matrix(kNodes, kDim);
  artifact.p = Matrix(kNodes, kDim);
  for (int i = 0; i < kNodes; ++i) {
    for (int j = 0; j < kDim; ++j) {
      artifact.z(i, j) = v * 1000.0 + i * kDim + j;
      artifact.p(i, j) = 1.0 / kDim;
    }
  }
  artifact.community.assign(kNodes, static_cast<int32_t>(version % kDim));
  artifact.anomaly.assign(kNodes, v);
  return artifact;
}

std::shared_ptr<const ModelSnapshot> VersionedSnapshot(uint64_t version) {
  std::string source = "v";
  source += std::to_string(version);
  return std::make_shared<const ModelSnapshot>(VersionedArtifact(version),
                                               version, std::move(source));
}

/// Fails the test if `result`'s fields don't all match its version.
void CheckConsistent(const QueryResult& result) {
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  const QueryResponse& r = result.response;
  const double v = static_cast<double>(r.snapshot_version);
  switch (r.op) {
    case QueryOp::kLookup:
      ASSERT_EQ(r.embedding.size(), static_cast<size_t>(kDim));
      for (int j = 0; j < kDim; ++j)
        ASSERT_EQ(r.embedding[j], v * 1000.0 + r.id * kDim + j)
            << "torn read: version " << r.snapshot_version << " node " << r.id;
      break;
    case QueryOp::kAnomaly:
      ASSERT_EQ(r.anomaly_score, v) << "torn read at version "
                                    << r.snapshot_version;
      break;
    case QueryOp::kCommunity:
      ASSERT_EQ(r.community,
                static_cast<int>(r.snapshot_version % kDim))
          << "torn read at version " << r.snapshot_version;
      break;
    default:
      break;
  }
}

// --- Hot-swap hammer --------------------------------------------------------

TEST(HotSwap, ConcurrentReadersNeverSeeTornSnapshots) {
  QueryEngine engine(VersionedSnapshot(1));
  constexpr int kReaders = 6;
  constexpr int kSwaps = 400;
  constexpr int kReadsPerReader = 4000;

  // Pre-build the rotation so the writer loop is pure swap traffic.
  std::vector<std::shared_ptr<const ModelSnapshot>> rotation;
  for (uint64_t v = 2; v <= 9; ++v) rotation.push_back(VersionedSnapshot(v));

  std::atomic<uint64_t> observed_max_version{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&engine, &observed_max_version, &writer_done, t] {
      const QueryOp ops[] = {QueryOp::kLookup, QueryOp::kAnomaly,
                             QueryOp::kCommunity};
      const auto note_version = [&observed_max_version](uint64_t version) {
        uint64_t seen = observed_max_version.load(std::memory_order_relaxed);
        while (seen < version &&
               !observed_max_version.compare_exchange_weak(
                   seen, version, std::memory_order_relaxed)) {
        }
      };
      // Hammer for at least the fixed count, and keep going until the writer
      // has published its last swap: on a loaded (or single-core) machine a
      // fixed count alone can drain before the first swap even lands.
      for (int i = 0; i < kReadsPerReader ||
                      !writer_done.load(std::memory_order_acquire);
           ++i) {
        QueryRequest request;
        request.op = ops[(t + i) % 3];
        request.id = (t * 31 + i) % kNodes;
        const QueryResult result = engine.Execute(request);
        CheckConsistent(result);
        note_version(result.response.snapshot_version);
      }
      // The writer is done, so this read is ordered after its final publish
      // and must observe a swapped-in snapshot — every reader sees >= one
      // swap, deterministically.
      QueryRequest request;
      request.op = QueryOp::kAnomaly;
      request.id = t % kNodes;
      const QueryResult result = engine.Execute(request);
      CheckConsistent(result);
      note_version(result.response.snapshot_version);
    });
  }

  std::thread writer([&engine, &rotation, &writer_done] {
    for (int s = 0; s < kSwaps; ++s)
      engine.Swap(rotation[s % rotation.size()]);
    writer_done.store(true, std::memory_order_release);
  });

  for (std::thread& r : readers) r.join();
  writer.join();

  // Readers actually raced the writer (saw at least one swapped-in version).
  EXPECT_GE(observed_max_version.load(), 2u);
  // The engine settled on the writer's last snapshot.
  EXPECT_EQ(engine.snapshot()->version(),
            rotation[(kSwaps - 1) % rotation.size()]->version());
}

TEST(HotSwap, BatchesSpanningSwapsStayPerRequestConsistent) {
  QueryEngine engine(VersionedSnapshot(1));
  std::vector<std::shared_ptr<const ModelSnapshot>> rotation;
  for (uint64_t v = 2; v <= 5; ++v) rotation.push_back(VersionedSnapshot(v));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int s = 0;
    while (!stop.load(std::memory_order_relaxed))
      engine.Swap(rotation[s++ % rotation.size()]);
  });

  std::vector<QueryRequest> batch(64);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].op = QueryOp::kLookup;
    batch[i].id = static_cast<int>(i % kNodes);
  }
  for (int round = 0; round < 200; ++round) {
    const std::vector<QueryResult> results = engine.ExecuteBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    // Individual responses may come from different versions (a swap landed
    // mid-batch) but each one must be internally consistent.
    for (const QueryResult& result : results) CheckConsistent(result);
  }
  stop.store(true);
  writer.join();
}

TEST(HotSwap, DisplacedSnapshotOutlivesSwapWhilePinned) {
  QueryEngine engine(VersionedSnapshot(1));
  std::shared_ptr<const ModelSnapshot> pinned = engine.snapshot();
  std::shared_ptr<const ModelSnapshot> displaced =
      engine.Swap(VersionedSnapshot(2));
  EXPECT_EQ(displaced->version(), 1u);
  // The pinned reference still answers from the old model after the swap.
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_EQ(pinned->anomaly()[0], 1.0);
  EXPECT_EQ(engine.snapshot()->version(), 2u);
}

TEST(HotSwap, ResultsIdenticalAcrossThreadCounts) {
  // The knn scan parallelises; its response must not depend on the thread
  // count (chunked scores merged by a serial top-k).
  QueryRequest request;
  request.op = QueryOp::kKnn;
  request.id = 3;
  request.k = 7;
  std::vector<QueryResponse> responses;
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    QueryEngine engine(VersionedSnapshot(1));
    QueryResult result = engine.Execute(request);
    ASSERT_TRUE(result.ok());
    responses.push_back(result.response);
  }
  ASSERT_EQ(responses[0].neighbors.size(), responses[1].neighbors.size());
  for (size_t i = 0; i < responses[0].neighbors.size(); ++i) {
    EXPECT_EQ(responses[0].neighbors[i].id, responses[1].neighbors[i].id);
    EXPECT_EQ(std::memcmp(&responses[0].neighbors[i].score,
                          &responses[1].neighbors[i].score, sizeof(double)),
              0);
  }
}

// --- ANSV artifact format ---------------------------------------------------

TEST(ModelArtifact, SerializeParseRoundtrip) {
  const ModelArtifact original = VersionedArtifact(3);
  StatusOr<ModelArtifact> loaded =
      ParseModelArtifact(SerializeModelArtifact(original), "mem");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ModelArtifact& artifact = loaded.value();
  EXPECT_EQ(artifact.num_nodes, kNodes);
  EXPECT_EQ(artifact.embed_dim, kDim);
  EXPECT_EQ(artifact.num_classes, 0);
  // Doubles roundtrip bit-exactly.
  EXPECT_EQ(std::memcmp(artifact.z.data(), original.z.data(),
                        sizeof(double) * kNodes * kDim),
            0);
  EXPECT_EQ(artifact.community, original.community);
  EXPECT_EQ(artifact.anomaly, original.anomaly);
}

TEST(ModelArtifact, SaveLoadRoundtripOnDisk) {
  const std::string dir = testing::TempDir() + "/ansv_roundtrip";
  ASSERT_TRUE(Env::Default()->CreateDir(dir).ok());
  const std::string path = dir + "/model.ansv";
  ASSERT_TRUE(SaveModelArtifact(VersionedArtifact(5), path).ok());
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));  // atomic write
  StatusOr<std::shared_ptr<const ModelSnapshot>> snapshot =
      ModelSnapshot::Load(path, 5);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value()->version(), 5u);
  EXPECT_EQ(snapshot.value()->source(), path);
  EXPECT_EQ(snapshot.value()->anomaly()[0], 5.0);
}

TEST(ModelArtifact, CorruptionIsRejected) {
  const std::string good = SerializeModelArtifact(VersionedArtifact(1));
  {  // bad magic
    std::string bytes = good;
    bytes[0] = 'X';
    EXPECT_FALSE(ParseModelArtifact(bytes, "mem").ok());
  }
  {  // unsupported version
    std::string bytes = good;
    bytes[4] = 9;
    auto parsed = ParseModelArtifact(bytes, "mem");
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find(
                  "unsupported model artifact version 9"),
              std::string::npos);
  }
  {  // trailing bytes
    EXPECT_FALSE(ParseModelArtifact(good + "tail", "mem").ok());
  }
}

TEST(ModelArtifact, HugeDeclaredCountsRejectedWithoutAllocating) {
  // A 32-byte forgery declaring 2^27 nodes must fail on the bounds/underflow
  // checks, not OOM. (Sealed with a valid CRC so the count checks are what's
  // being exercised.)
  std::string payload;
  PutScalarLe<uint32_t>(&payload, 1u << 27);  // num_nodes (within kMaxNodes)
  PutScalarLe<uint32_t>(&payload, 1u << 15);  // embed_dim (within kMaxDim)
  PutScalarLe<uint32_t>(&payload, 0);         // num_classes
  PutScalarLe<int32_t>(&payload, 1 << 27);    // z rows
  PutScalarLe<int32_t>(&payload, 1 << 15);    // z cols
  auto parsed = ParseModelArtifact(Seal("ANSV", 1, payload), "forged");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("truncated"), std::string::npos);
}

TEST(ModelArtifact, OutOfRangeCommunityIdRejected) {
  ModelArtifact artifact = VersionedArtifact(1);
  artifact.community[3] = kDim;  // valid ids are [0, embed_dim)
  auto parsed =
      ParseModelArtifact(SerializeModelArtifact(artifact), "mem");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("community id"), std::string::npos);
}

TEST(ModelArtifact, BuildDerivesCommunitiesAndScores) {
  Graph graph = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  graph.SetLabels({0, 0, 1, 1});
  Matrix z(4, 2);
  z(0, 0) = 3.0; z(0, 1) = 0.0;   // argmax 0
  z(1, 0) = 0.0; z(1, 1) = 3.0;   // argmax 1
  z(2, 0) = 1.0; z(2, 1) = 1.0;   // tie -> lowest index 0
  z(3, 0) = 0.0; z(3, 1) = 5.0;   // argmax 1
  const ModelArtifact artifact =
      BuildModelArtifact(graph, z, RowSoftmax(z), 7);
  EXPECT_EQ(artifact.community, (std::vector<int32_t>{0, 1, 0, 1}));
  EXPECT_EQ(artifact.num_classes, 2);
  EXPECT_EQ(artifact.proba.rows(), 4);
  EXPECT_EQ(artifact.proba.cols(), 2);
  ASSERT_EQ(artifact.anomaly.size(), 4u);
  // The uniform (tied) row has maximal membership entropy.
  for (int i : {0, 1, 3})
    EXPECT_GT(artifact.anomaly[2], artifact.anomaly[i]);
}

}  // namespace
}  // namespace aneci::serve
