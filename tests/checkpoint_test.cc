// The checkpoint container format and its integrity guarantees: CRC-32
// vectors, byte-exact roundtrips, rejection of mislabelled files and forged
// counts, the .bin/.bak rotation fallback, and atomicity of writes under
// injected I/O faults. The prefix/bit-flip battery shared with the other
// binary formats is in format_integrity_test.cc.
#include "util/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "util/byteio.h"
#include "util/env.h"

namespace aneci {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  EXPECT_TRUE(Env::Default()->CreateDir(dir).ok());
  return dir;
}

TrainingCheckpoint MakeCheckpoint(int next_epoch) {
  TrainingCheckpoint c;
  c.config_fingerprint = 0xdeadbeefcafef00dULL;
  c.next_epoch = next_epoch;
  c.adam_step = next_epoch;
  c.lr = 0.01;
  c.best_mod_loss = -0.375;
  c.since_best = 2;
  c.watchdog_rollbacks = 1;
  c.watchdog_best_abs_loss = 17.25;
  for (int i = 0; i < 4; ++i) c.rng.s[i] = 0x1111111111111111ULL * (i + 1);
  c.rng.has_gauss = true;
  c.rng.gauss = -0.5;
  TensorBlob w;
  w.rows = 2;
  w.cols = 3;
  w.data = {1.0, -2.0, 0.25, 1e-300, -0.0, 3.5};
  c.params = {w, w};
  c.opt_m = {w, w};
  c.opt_v = {w, w};
  c.pairs = {{0, 1, 0.75}, {3, 2, 0.0}};
  c.history = {{0, 1.5, -0.1, 0.9}, {1, 1.25, -0.05, 0.8}};
  for (int i = 0; i < 4; ++i) c.adv_rng.s[i] = 0x2222222222222222ULL * (i + 1);
  c.adv_rng.has_gauss = true;
  c.adv_rng.gauss = 2.75;
  return c;
}

void ExpectCheckpointsEqual(const TrainingCheckpoint& a,
                            const TrainingCheckpoint& b) {
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.adam_step, b.adam_step);
  EXPECT_EQ(a.since_best, b.since_best);
  EXPECT_EQ(a.watchdog_rollbacks, b.watchdog_rollbacks);
  EXPECT_EQ(a.rng.has_gauss, b.rng.has_gauss);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  // Doubles must survive bit-exactly (including -0.0 and denormals).
  EXPECT_EQ(std::memcmp(&a.lr, &b.lr, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.best_mod_loss, &b.best_mod_loss, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&a.rng.gauss, &b.rng.gauss, sizeof(double)), 0);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t k = 0; k < a.params.size(); ++k) {
    EXPECT_EQ(a.params[k].rows, b.params[k].rows);
    EXPECT_EQ(a.params[k].cols, b.params[k].cols);
    ASSERT_EQ(a.params[k].data.size(), b.params[k].data.size());
    EXPECT_EQ(std::memcmp(a.params[k].data.data(), b.params[k].data.data(),
                          a.params[k].data.size() * sizeof(double)),
              0);
  }
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t k = 0; k < a.pairs.size(); ++k) {
    EXPECT_EQ(a.pairs[k].u, b.pairs[k].u);
    EXPECT_EQ(a.pairs[k].v, b.pairs[k].v);
    EXPECT_EQ(a.pairs[k].target, b.pairs[k].target);
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t k = 0; k < a.history.size(); ++k) {
    EXPECT_EQ(a.history[k].epoch, b.history[k].epoch);
    EXPECT_EQ(a.history[k].loss, b.history[k].loss);
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.adv_rng.s[i], b.adv_rng.s[i]);
  EXPECT_EQ(a.adv_rng.has_gauss, b.adv_rng.has_gauss);
  EXPECT_EQ(std::memcmp(&a.adv_rng.gauss, &b.adv_rng.gauss, sizeof(double)),
            0);
}

// --- CRC-32 -----------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // IEEE 802.3 check value for the standard test string.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32, SensitiveToSingleBit) {
  std::string data(64, '\x5a');
  const uint32_t base = Crc32(data.data(), data.size());
  data[17] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), base);
}

// --- Roundtrip --------------------------------------------------------------

TEST(Checkpoint, SerializeParseRoundtrip) {
  const TrainingCheckpoint original = MakeCheckpoint(7);
  StatusOr<TrainingCheckpoint> loaded =
      ParseCheckpoint(SerializeCheckpoint(original), "mem");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCheckpointsEqual(original, loaded.value());
}

TEST(Checkpoint, V1FilesRejectedNamingTheVersion) {
  // Only v2 is read. A v1 file (the v2 payload without its 41-byte
  // adversarial-RNG trailer, sealed as version 1) gets a typed error that
  // names the version, not a parse with a zeroed block.
  constexpr size_t kHeader = 4 + 4 + 8 + 4;
  constexpr size_t kAdvTrailer = 4 * 8 + 1 + 8;
  const std::string v2 = SerializeCheckpoint(MakeCheckpoint(3));
  const std::string v1 = Seal(
      "ANCK", 1,
      std::string_view(v2).substr(kHeader, v2.size() - kHeader - kAdvTrailer));
  StatusOr<TrainingCheckpoint> loaded = ParseCheckpoint(v1, "mem-v1");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message(),
            "unsupported checkpoint version 1 (this build reads version 2): "
            "mem-v1");
}

TEST(Checkpoint, SaveLoadRoundtripOnDisk) {
  const std::string path = TestDir("ckpt_roundtrip") + "/checkpoint.bin";
  const TrainingCheckpoint original = MakeCheckpoint(42);
  ASSERT_TRUE(SaveCheckpoint(original, path).ok());
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCheckpointsEqual(original, loaded.value());
}

TEST(Checkpoint, AtomicSaveLeavesNoTempFile) {
  const std::string dir = TestDir("ckpt_no_tmp");
  const std::string path = dir + "/checkpoint.bin";
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(1), path).ok());
  EXPECT_TRUE(Env::Default()->FileExists(path));
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));
}

// --- Corruption detection ---------------------------------------------------

TEST(Checkpoint, MissingFileIsIoError) {
  StatusOr<TrainingCheckpoint> loaded =
      LoadCheckpoint(testing::TempDir() + "/does_not_exist.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(Checkpoint, BadMagicRejected) {
  std::string bytes = SerializeCheckpoint(MakeCheckpoint(3));
  bytes[0] = 'X';
  StatusOr<TrainingCheckpoint> loaded = ParseCheckpoint(bytes, "mem");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
}

TEST(Checkpoint, UnsupportedVersionRejected) {
  std::string bytes = SerializeCheckpoint(MakeCheckpoint(3));
  bytes[4] = 99;  // Version field.
  StatusOr<TrainingCheckpoint> loaded = ParseCheckpoint(bytes, "mem");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(Checkpoint, TrailingBytesRejected) {
  TrainingCheckpoint c = MakeCheckpoint(3);
  std::string bytes = SerializeCheckpoint(c);
  bytes += "extra";
  StatusOr<TrainingCheckpoint> loaded = ParseCheckpoint(bytes, "mem");
  ASSERT_FALSE(loaded.ok());
  // Appending bytes breaks the declared-size check before the CRC runs.
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST(Checkpoint, HugeDeclaredCountsRejectedWithoutAllocating) {
  // Each forgery declares a count that would demand many GB if an
  // allocation were sized from it before being checked. The envelope is
  // sealed with a valid CRC, so only the count bounds stand in the way.
  std::string fixed;  // Every field before the first tensor list, zeroed.
  PutScalarLe<uint64_t>(&fixed, 0);                   // config_fingerprint
  for (int i = 0; i < 2; ++i) PutScalarLe<int32_t>(&fixed, 0);
  for (int i = 0; i < 2; ++i) PutDoubleLe(&fixed, 0.0);
  for (int i = 0; i < 2; ++i) PutScalarLe<int32_t>(&fixed, 0);
  PutDoubleLe(&fixed, 0.0);                           // watchdog loss
  for (int i = 0; i < 4; ++i) PutScalarLe<uint64_t>(&fixed, 0);  // rng
  PutScalarLe<uint8_t>(&fixed, 0);
  PutDoubleLe(&fixed, 0.0);
  std::string no_tensors;
  for (int i = 0; i < 3; ++i) PutScalarLe<uint32_t>(&no_tensors, 0);

  std::string tensor_count = fixed;  // 2^32 - 1 tensors.
  PutScalarLe<uint32_t>(&tensor_count, 0xffffffffu);
  std::string tensor_shape = fixed;  // One 2^30 x 2^30 tensor.
  PutScalarLe<uint32_t>(&tensor_shape, 1);
  PutScalarLe<int32_t>(&tensor_shape, 1 << 30);
  PutScalarLe<int32_t>(&tensor_shape, 1 << 30);
  std::string pair_count = fixed + no_tensors;
  PutScalarLe<uint32_t>(&pair_count, 0xffffffffu);
  std::string history_count = fixed + no_tensors;
  PutScalarLe<uint32_t>(&history_count, 0);
  PutScalarLe<uint32_t>(&history_count, 0xffffffffu);

  for (const std::string& payload :
       {tensor_count, tensor_shape, pair_count, history_count}) {
    StatusOr<TrainingCheckpoint> loaded =
        ParseCheckpoint(Seal("ANCK", 2, payload), "forged");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message(),
              "checkpoint payload truncated: forged");
  }
}

// --- Exact diagnostic wording (regression) ----------------------------------
// Operators grep logs for these messages; the wording is a contract. If the
// format version bumps, update the pinned range here deliberately.

TEST(Checkpoint, UnsupportedVersionMessageNamesReadableRange) {
  std::string bytes = SerializeCheckpoint(MakeCheckpoint(3));
  bytes[4] = 99;  // Version field.
  StatusOr<TrainingCheckpoint> loaded = ParseCheckpoint(bytes, "run7/ckpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "unsupported checkpoint version 99 "
            "(this build reads version 2): run7/ckpt");
}

TEST(Checkpoint, CrcMismatchMessageNamesBothChecksums) {
  // The message must carry the declared and the computed CRC so a corrupt
  // file can be triaged from the log line alone — via the real on-disk
  // LoadCheckpoint path, not just the in-memory parser.
  constexpr size_t kHeader = 4 + 4 + 8 + 4;
  const std::string dir = TestDir("ckpt_crc_message");
  const std::string path = dir + "/checkpoint.bin";
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(3), path).ok());
  StatusOr<std::string> bytes = Env::Default()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = std::move(bytes).value();
  corrupt[kHeader + 11] ^= 0x20;
  ASSERT_TRUE(Env::Default()->WriteFileAtomic(path, corrupt).ok());

  uint32_t declared = 0;
  std::memcpy(&declared, corrupt.data() + 16, sizeof(declared));
  const uint32_t actual =
      Crc32(corrupt.data() + kHeader, corrupt.size() - kHeader);
  ASSERT_NE(declared, actual);
  auto hex = [](uint32_t v) {
    char buf[11];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return std::string(buf);
  };
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "checkpoint CRC mismatch (corrupt): header declares " +
                hex(declared) + ", payload hashes to " + hex(actual) + ": " +
                path);
}

// --- Rotation and fallback --------------------------------------------------

TEST(Checkpoint, RotationKeepsPreviousSnapshot) {
  const std::string dir = TestDir("ckpt_rotation");
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(5), dir).ok());
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(10), dir).ok());
  std::string used;
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir, nullptr,
                                                             &used);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().next_epoch, 10);
  EXPECT_EQ(used, CheckpointBinPath(dir));
  StatusOr<TrainingCheckpoint> previous =
      LoadCheckpoint(CheckpointBakPath(dir));
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous.value().next_epoch, 5);
}

TEST(Checkpoint, CorruptNewestFallsBackToPrevious) {
  const std::string dir = TestDir("ckpt_fallback");
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(5), dir).ok());
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(10), dir).ok());
  // Flip a payload bit in the newest snapshot.
  {
    std::fstream f(CheckpointBinPath(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(40);
    f.write(&byte, 1);
  }
  std::string used;
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir, nullptr,
                                                             &used);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().next_epoch, 5);
  EXPECT_EQ(used, CheckpointBakPath(dir));
}

TEST(Checkpoint, BothCorruptReportsPrimaryError) {
  const std::string dir = TestDir("ckpt_both_corrupt");
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(5), dir).ok());
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(10), dir).ok());
  for (const std::string& path :
       {CheckpointBinPath(dir), CheckpointBakPath(dir)}) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir);
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, EmptyDirIsNotFound) {
  const std::string dir = TestDir("ckpt_empty");
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir);
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

// --- Injected I/O faults ----------------------------------------------------

TEST(FaultInjection, FailedWriteSurfacesStatusAndPreservesOldSnapshot) {
  const std::string dir = TestDir("ckpt_fail_write");
  FaultInjectingEnv env;
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(5), dir, &env).ok());
  env.plan.fail_write = env.writes();  // Fail the next write.
  Status st = SaveRotatingCheckpoint(MakeCheckpoint(10), dir, &env);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The epoch-5 snapshot survives (rotated into the .bak slot).
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().next_epoch, 5);
}

TEST(FaultInjection, TruncatedWriteDetectedOnLoad) {
  const std::string dir = TestDir("ckpt_trunc_write");
  FaultInjectingEnv env;
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(5), dir, &env).ok());
  env.plan.truncate_write = env.writes();
  env.plan.truncate_bytes = 64;
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(10), dir, &env).ok());
  // The torn epoch-10 snapshot is rejected; recovery lands on epoch 5.
  std::string used;
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir, &env, &used);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().next_epoch, 5);
  EXPECT_EQ(used, CheckpointBakPath(dir));
  StatusOr<TrainingCheckpoint> direct =
      LoadCheckpoint(CheckpointBinPath(dir), &env);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("truncated"), std::string::npos);
}

TEST(FaultInjection, BitFlippedWriteDetectedOnLoad) {
  const std::string dir = TestDir("ckpt_flip_write");
  FaultInjectingEnv env;
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(5), dir, &env).ok());
  env.plan.bitflip_write = env.writes();
  env.plan.bitflip_byte = 100;  // Deep in the payload.
  env.plan.bitflip_bit = 3;
  ASSERT_TRUE(SaveRotatingCheckpoint(MakeCheckpoint(10), dir, &env).ok());
  StatusOr<TrainingCheckpoint> direct =
      LoadCheckpoint(CheckpointBinPath(dir), &env);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("CRC mismatch"), std::string::npos);
  StatusOr<TrainingCheckpoint> latest = LoadLatestCheckpoint(dir, &env);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().next_epoch, 5);
}

}  // namespace
}  // namespace aneci
