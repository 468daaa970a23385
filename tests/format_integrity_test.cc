// The integrity contract of the three binary on-disk formats — ANCK training
// checkpoints, ANSV serving artifacts and ANEL event logs — which all wear
// the envelope from util/byteio.h. One parameterised battery checks each
// format: every strict prefix, every single-byte flip and trailing bytes
// behind a valid CRC are rejected. Golden length/CRC pins of fixed inputs
// make any change to the bytes a writer produces a deliberate one.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/model_artifact.h"
#include "stream/event_log.h"
#include "util/byteio.h"
#include "util/checkpoint.h"

namespace aneci {
namespace {

constexpr size_t kHeader = 4 + 4 + 8 + 4;

TrainingCheckpoint SampleCheckpoint() {
  TrainingCheckpoint c;
  c.config_fingerprint = 0xdeadbeefcafef00dULL;
  c.next_epoch = 7;
  c.adam_step = 7;
  c.lr = 0.01;
  c.best_mod_loss = -0.375;
  c.since_best = 2;
  c.watchdog_rollbacks = 1;
  c.watchdog_best_abs_loss = 17.25;
  for (int i = 0; i < 4; ++i) {
    c.rng.s[i] = 0x1111111111111111ULL * (i + 1);
    c.adv_rng.s[i] = 0x2222222222222222ULL * (i + 1);
  }
  c.rng.has_gauss = true;
  c.rng.gauss = -0.5;
  c.adv_rng.has_gauss = true;
  c.adv_rng.gauss = 2.75;
  const TensorBlob w{2, 3, {1.0, -2.0, 0.25, 1e-300, -0.0, 3.5}};
  c.params = {w, w};
  c.opt_m = {w, w};
  c.opt_v = {w, w};
  c.pairs = {{0, 1, 0.75}, {3, 2, 0.0}};
  c.history = {{0, 1.5, -0.1, 0.9}, {1, 1.25, -0.05, 0.8}};
  return c;
}

serve::ModelArtifact SampleArtifact() {
  serve::ModelArtifact a;
  a.num_nodes = 5;
  a.embed_dim = 3;
  a.num_classes = 2;
  a.z = Matrix(5, 3);
  a.p = Matrix(5, 3);
  a.proba = Matrix(5, 2);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) {
      a.z(i, j) = 0.5 * i - 0.25 * j;
      a.p(i, j) = (i + j + 1) / 8.0;
    }
    a.proba(i, 0) = 0.25 * (i % 2);
    a.proba(i, 1) = 1.0 - a.proba(i, 0);
    a.community.push_back(i % 3);
    a.anomaly.push_back(-0.125 * i);
  }
  a.z(2, 1) = -0.0;
  return a;
}

std::vector<stream::EventBatch> SampleLog() {
  using stream::GraphEvent;
  return {{0,
           {GraphEvent::AddEdge(0, 1), GraphEvent::RemoveEdge(2, 3),
            GraphEvent::SetAttribute(1, 4, -0.125)}},
          {7, {GraphEvent::AddEdge(5, 6)}}};
}

// One entry per format: the magic, the golden length/CRC-32 of its sample,
// the serialised sample, and a parse-and-re-serialise round trip.
struct Format {
  std::string_view magic;
  size_t golden_size;
  uint32_t golden_crc;
  std::string (*sample)();
  StatusOr<std::string> (*reencode)(std::string_view bytes);
};

void PrintTo(const Format& format, std::ostream* os) { *os << format.magic; }

const Format kFormats[] = {
    {"ANCK", 594, 0x54c2e07a,
     [] { return SerializeCheckpoint(SampleCheckpoint()); },
     [](std::string_view bytes) -> StatusOr<std::string> {
       ANECI_ASSIGN_OR_RETURN(TrainingCheckpoint c,
                              ParseCheckpoint(bytes, "battery"));
       return SerializeCheckpoint(c);
     }},
    {"ANSV", 436, 0x8297e847,
     [] { return serve::SerializeModelArtifact(SampleArtifact()); },
     [](std::string_view bytes) -> StatusOr<std::string> {
       ANECI_ASSIGN_OR_RETURN(serve::ModelArtifact a,
                              serve::ParseModelArtifact(bytes, "battery"));
       return serve::SerializeModelArtifact(a);
     }},
    {"ANEL", 116, 0x513d718a,
     [] { return stream::SerializeEventLog(SampleLog()); },
     [](std::string_view bytes) -> StatusOr<std::string> {
       ANECI_ASSIGN_OR_RETURN(std::vector<stream::EventBatch> log,
                              stream::ParseEventLog(bytes, "battery"));
       return stream::SerializeEventLog(log);
     }},
};

class EnvelopeBattery : public testing::TestWithParam<Format> {};

INSTANTIATE_TEST_SUITE_P(AllFormats, EnvelopeBattery,
                         testing::ValuesIn(kFormats));

TEST_P(EnvelopeBattery, GoldenBytesAndRoundTrip) {
  const Format& format = GetParam();
  const std::string bytes = format.sample();
  EXPECT_EQ(bytes.size(), format.golden_size);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), format.golden_crc);
  StatusOr<std::string> again = format.reencode(bytes);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), bytes);
}

TEST_P(EnvelopeBattery, EveryStrictPrefixRejected) {
  const Format& format = GetParam();
  const std::string bytes = format.sample();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    StatusOr<std::string> parsed =
        format.reencode(std::string_view(bytes).substr(0, keep));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << keep << " bytes accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_P(EnvelopeBattery, EverySingleByteFlipRejected) {
  const Format& format = GetParam();
  const std::string bytes = format.sample();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff}) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ mask);
      StatusOr<std::string> parsed = format.reencode(corrupt);
      ASSERT_FALSE(parsed.ok())
          << "byte " << pos << " ^ " << mask << " accepted";
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      if (pos >= kHeader) {
        EXPECT_NE(parsed.status().message().find("CRC mismatch"),
                  std::string::npos)
            << parsed.status().message();
      }
    }
  }
}

TEST_P(EnvelopeBattery, CrcMismatchNamesBothChecksums) {
  const Format& format = GetParam();
  std::string bytes = format.sample();
  bytes[kHeader + 5] ^= 0x20;
  StatusOr<std::string> parsed = format.reencode(bytes);
  ASSERT_FALSE(parsed.ok());
  const std::string& message = parsed.status().message();
  EXPECT_NE(message.find("CRC mismatch (corrupt): header declares 0x"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find(", payload hashes to 0x"), std::string::npos)
      << message;
}

TEST_P(EnvelopeBattery, TrailingBytesRejected) {
  const Format& format = GetParam();
  const std::string bytes = format.sample();
  // Outside the envelope: the declared size no longer matches.
  StatusOr<std::string> appended = format.reencode(bytes + "x");
  ASSERT_FALSE(appended.ok());
  EXPECT_NE(appended.status().message().find("truncated"), std::string::npos);
  // Inside a re-sealed envelope with a valid CRC: the payload decoder must
  // notice the bytes it did not consume.
  StatusOr<Envelope> envelope =
      Open(bytes, format.magic, 0, UINT32_MAX, "sample", "battery");
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  for (size_t extra : {1, 8, 64}) {
    std::string payload(envelope.value().payload);
    payload.append(extra, '\0');
    StatusOr<std::string> parsed = format.reencode(
        Seal(format.magic, envelope.value().version, payload));
    ASSERT_FALSE(parsed.ok()) << extra << " trailing bytes accepted";
    EXPECT_NE(parsed.status().message().find("trailing"), std::string::npos)
        << parsed.status().message();
  }
}

// --- The envelope itself ----------------------------------------------------

TEST(Envelope, SealOpenRoundTrip) {
  const std::string file = Seal("TEST", 3, "payload");
  ASSERT_EQ(file.size(), kHeader + 7);
  StatusOr<Envelope> envelope = Open(file, "TEST", 1, 3, "test file", "mem");
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope.value().version, 3u);
  EXPECT_EQ(envelope.value().payload, "payload");
}

TEST(Envelope, ChecksRunInOrder) {
  const std::string good = Seal("TEST", 2, "payload");
  auto message = [](std::string_view bytes) {
    return Open(bytes, "TEST", 2, 2, "test file", "mem").status().message();
  };
  EXPECT_EQ(message(good.substr(0, 19)), "test file too short for header: mem");
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  bad_magic[4] = 9;  // The magic is checked before the version.
  EXPECT_EQ(message(bad_magic),
            "test file has bad magic (want \"TEST\"): mem");
  std::string bad_version = good;
  bad_version[4] = 9;
  bad_version.pop_back();  // The version is checked before the size.
  EXPECT_EQ(message(bad_version),
            "unsupported test file version 9 (this build reads version 2): "
            "mem");
  std::string short_payload = good;
  short_payload.pop_back();
  short_payload[kHeader] ^= 1;  // The size is checked before the CRC.
  EXPECT_EQ(message(short_payload),
            "test file truncated: header declares 7 payload bytes, file has "
            "6: mem");
}

TEST(ByteReader, GetDoublesChecksLengthBeforeSizing) {
  std::string bytes;
  for (double v : {1.5, -0.0, 2.25}) PutDoubleLe(&bytes, v);
  ByteReader reader(bytes, "test payload", "mem");
  std::vector<double> out;
  // A count whose byte size overflows 64 bits must not wrap past the check.
  EXPECT_FALSE(reader.GetDoubles(SIZE_MAX / 4, &out).ok());
  EXPECT_EQ(reader.GetDoubles(4, &out).message(),
            "test payload truncated: mem");
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(reader.GetDoubles(3, &out).ok());
  EXPECT_EQ(out, (std::vector<double>{1.5, -0.0, 2.25}));
  EXPECT_TRUE(reader.exhausted());
}

}  // namespace
}  // namespace aneci
