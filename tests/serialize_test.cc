#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "data/synthetic.h"
#include "quant/opq.h"
#include "quant/serialize.h"

namespace rpq::quant {
namespace {

Dataset SmallData(size_t n = 300) {
  synthetic::GmmOptions opt;
  opt.dim = 32;
  opt.num_clusters = 6;
  opt.intrinsic_dim = 8;
  return synthetic::MakeGmm(n, opt, 21);
}

TEST(SerializeTest, PlainPqRoundTrip) {
  Dataset d = SmallData();
  PqOptions opt;
  opt.m = 4;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  std::string path = ::testing::TempDir() + "/pq.rpqq";
  ASSERT_TRUE(SaveQuantizer(*pq, path).ok());
  auto loaded = LoadQuantizer(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->dim(), pq->dim());
  EXPECT_EQ(loaded.value()->num_chunks(), pq->num_chunks());
  EXPECT_EQ(loaded.value()->num_centroids(), pq->num_centroids());
  EXPECT_FALSE(loaded.value()->has_rotation());
  // Identical codes for identical inputs.
  std::vector<uint8_t> c1(pq->code_size()), c2(pq->code_size());
  for (size_t i = 0; i < 30; ++i) {
    pq->Encode(d[i], c1.data());
    loaded.value()->Encode(d[i], c2.data());
    EXPECT_EQ(c1, c2) << "vector " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RotatedQuantizerRoundTrip) {
  Dataset d = SmallData();
  OpqOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 16;
  opt.outer_iters = 2;
  auto opq = TrainOpq(d, opt);
  std::string path = ::testing::TempDir() + "/opq.rpqq";
  ASSERT_TRUE(SaveQuantizer(*opq, path).ok());
  auto loaded = LoadQuantizer(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value()->has_rotation());
  // ADC tables must agree bitwise (same rotation, same codebook).
  const size_t entries = opq->num_chunks() * opq->num_centroids();
  std::vector<float> t1(entries), t2(entries);
  opq->BuildLookupTable(d[0], t1.data());
  loaded.value()->BuildLookupTable(d[0], t2.data());
  for (size_t i = 0; i < entries; ++i) EXPECT_EQ(t1[i], t2[i]) << "entry " << i;
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbageFile) {
  std::string path = ::testing::TempDir() + "/garbage.rpqq";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a model", f);
  std::fclose(f);
  auto loaded = LoadQuantizer(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsTruncatedModel) {
  Dataset d = SmallData();
  PqOptions opt;
  opt.m = 4;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  std::string path = ::testing::TempDir() + "/trunc.rpqq";
  ASSERT_TRUE(SaveQuantizer(*pq, path).ok());
  // Chop the file in half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full / 2), 0);
  auto loaded = LoadQuantizer(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// A well-formed header with absurd sizes must come back as IOError before
// anything is allocated from it: a 2^30-dim plain or split header would ask
// a Codebook for 2^38 or 2^35 floats, and a rotation flag for a dim x dim
// matrix the file cannot hold.
TEST(SerializeTest, RejectsHeaderSizesBeyondFileContents) {
  struct Crafted {
    const char* name;
    uint32_t version, dim, m, k;
    uint8_t has_rot;
    bool split;             // v4 headers carry a has_split byte
    size_t payload_floats;  // zero floats written after the header
  };
  for (const Crafted& c : {
           Crafted{"plain", 3, 1u << 30, 1, 256, 0, false, 0},
           Crafted{"split", 4, 1u << 30, 1, 256, 0, true, 0},
           // The codebook fits; the 2^32-float rotation does not.
           Crafted{"rotation", 3, 1u << 16, 1, 1, 1, false, 1u << 16},
       }) {
    std::string path = ::testing::TempDir() + "/crafted.rpqq";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("RPQQ", 1, 4, f);
    for (uint32_t v : {c.version, c.dim, c.m, c.k}) std::fwrite(&v, 4, 1, f);
    std::fwrite(&c.has_rot, 1, 1, f);
    if (c.split) std::fputc(1, f);
    if (c.payload_floats > 0) {
      const std::vector<float> payload(c.payload_floats, 0.f);
      std::fwrite(payload.data(), sizeof(float), payload.size(), f);
    }
    std::fclose(f);
    auto loaded = LoadQuantizer(path);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << c.name;
    std::remove(path.c_str());
  }
}

TEST(SerializeTest, CodesRoundTrip) {
  Dataset d = SmallData();
  PqOptions opt;
  opt.m = 4;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  auto codes = pq->EncodeDataset(d);
  std::string path = ::testing::TempDir() + "/codes.bin";
  ASSERT_TRUE(SaveCodes(codes, pq->code_size(), path).ok());
  size_t code_size = 0;
  auto loaded = LoadCodes(path, &code_size);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(code_size, pq->code_size());
  EXPECT_EQ(loaded.value(), codes);
  std::remove(path.c_str());
}

TEST(SerializeTest, CodesRejectBadShape) {
  std::vector<uint8_t> codes(10);
  EXPECT_FALSE(SaveCodes(codes, 3, "/tmp/never_written.bin").ok());
}

}  // namespace
}  // namespace rpq::quant
