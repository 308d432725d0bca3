// Seeded mutation fuzzing of the four binary loaders: RPQQ models, RPQC
// codes, RPQG graphs and RPQI indexes. Each run starts from valid files that
// the formats' own Save wrote and loads mutated copies of them: bit flips,
// byte and u32 overwrites, truncation, and one appended byte. Half of the
// mutants get their CRC32 trailer rewritten, so each loader's header and
// payload checks run past the checksum. Every load must return, OK or a
// Status; an abort or a sanitizer report fails the run. A mutant whose
// trailer was not rewritten must also be rejected: the checksum covers every
// byte, and the file ends at the trailer.
//
// The seed is fixed, so a failure reproduces exactly; the mutant being
// loaded is left at TempDir()/loader_fuzz.bin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "data/synthetic.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "quant/opq.h"
#include "quant/serialize.h"
#include "quant/split.h"

namespace rpq {
namespace {

constexpr size_t kMutantsPerArtifact = 400;
constexpr uint64_t kSeed = 20260613;

struct Artifact {
  std::string name;
  std::vector<uint8_t> bytes;                        ///< as Save wrote them
  std::function<Status(const std::string&)> load;    ///< the format's loader
};

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  for (int c; (c = std::fgetc(f)) != EOF;) bytes.push_back(uint8_t(c));
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// One mutation of `in`, drawn from `rng`; `what` describes it. Offsets land
// in the first 64 bytes (the headers) half the time, anywhere otherwise.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& in,
                            std::mt19937_64& rng, std::string* what) {
  std::vector<uint8_t> out = in;
  const auto offset = [&](size_t width) {
    const size_t span = out.size() - width + 1;
    const size_t limit = rng() % 2 == 0 ? std::min<size_t>(span, 64) : span;
    return static_cast<size_t>(rng() % limit);
  };
  switch (rng() % 5) {
    case 0: {
      const size_t at = offset(1);
      const int bit = static_cast<int>(rng() % 8);
      out[at] ^= static_cast<uint8_t>(1u << bit);
      *what = "flip bit " + std::to_string(bit) + " of byte " +
              std::to_string(at);
      break;
    }
    case 1: {
      const size_t at = offset(1);
      out[at] = static_cast<uint8_t>(rng());
      *what = "overwrite byte " + std::to_string(at);
      break;
    }
    case 2: {
      // Boundary values reach the size and range checks; random ones the rest.
      static constexpr uint32_t kValues[] = {0,      1,          2,
                                             3,      4,          15,
                                             16,     255,        256,
                                             0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF};
      const size_t at = offset(4);
      const uint32_t v = rng() % 2 == 0
                             ? kValues[rng() % std::size(kValues)]
                             : static_cast<uint32_t>(rng());
      std::memcpy(out.data() + at, &v, 4);
      *what = "overwrite u32 at " + std::to_string(at) + " with " +
              std::to_string(v);
      break;
    }
    case 3:
      out.resize(rng() % out.size());
      *what = "truncate to " + std::to_string(out.size());
      break;
    default:
      out.push_back(static_cast<uint8_t>(rng()));
      *what = "append one byte";
      break;
  }
  return out;
}

// Recomputes the last 4 bytes as the CRC32 of everything before them.
void RewriteTrailer(std::vector<uint8_t>* bytes) {
  if (bytes->size() < 4) return;
  const uint32_t crc = io::Crc32Update(0, bytes->data(), bytes->size() - 4);
  std::memcpy(bytes->data() + bytes->size() - 4, &crc, 4);
}

// Valid files of every format, each as its Save wrote it, with a loader
// bound to the quantizer it needs.
std::vector<Artifact> SavedArtifacts(const Dataset& data,
                                     const quant::PqQuantizer& pq4,
                                     const quant::PqQuantizer& pq8,
                                     const quant::PqQuantizer& split,
                                     const quant::PqQuantizer& opq) {
  const std::string path = ::testing::TempDir() + "/loader_fuzz_src.bin";
  std::vector<Artifact> out;
  const auto add = [&](const std::string& name, const Status& saved,
                       std::function<Status(const std::string&)> load) {
    EXPECT_TRUE(saved.ok()) << name << ": " << saved.ToString();
    out.push_back({name, ReadBytes(path), std::move(load)});
  };
  const auto load_model = [](const std::string& p) {
    return quant::LoadQuantizer(p).status();
  };
  add("rpqq 4-bit", quant::SaveQuantizer(pq4, path), load_model);
  add("rpqq 8-bit", quant::SaveQuantizer(pq8, path), load_model);
  add("rpqq split", quant::SaveQuantizer(split, path), load_model);
  add("rpqq rotated", quant::SaveQuantizer(opq, path), load_model);
  add("rpqc", quant::SaveCodes(pq8.EncodeDataset(data), pq8.code_size(), path),
      [](const std::string& p) {
        size_t code_size = 0;
        return quant::LoadCodes(p, &code_size).status();
      });
  graph::VamanaOptions vopt;
  vopt.degree = 12;
  vopt.build_beam = 24;
  add("rpqg", graph::BuildVamana(data, vopt).Save(path),
      [](const std::string& p) {
        return graph::ProximityGraph::Load(p).status();
      });
  ivf::IvfOptions plain;
  plain.nlist = 8;
  plain.kmeans_iters = 4;
  add("rpqi plain 4-bit", ivf::IvfIndex::Build(data, pq4, plain)->Save(path),
      [&pq4](const std::string& p) {
        return ivf::IvfIndex::Load(p, pq4).status();
      });
  ivf::IvfOptions residual = plain;
  residual.residual = true;
  residual.store_vectors = true;
  add("rpqi residual split + vectors",
      ivf::IvfIndex::Build(data, split, residual)->Save(path),
      [&split](const std::string& p) {
        return ivf::IvfIndex::Load(p, split).status();
      });
  std::remove(path.c_str());
  return out;
}

TEST(LoaderFuzzTest, EveryMutantLoadsOrReturnsAStatus) {
  synthetic::GmmOptions gopt;
  gopt.dim = 32;
  gopt.num_clusters = 6;
  gopt.intrinsic_dim = 8;
  const Dataset data = synthetic::MakeGmm(600, gopt, 5);
  quant::PqOptions four;
  four.m = 8;
  four.nbits = 4;
  four.kmeans_iters = 4;
  quant::PqOptions eight;
  eight.m = 4;
  eight.kmeans_iters = 4;
  quant::OpqOptions opq;
  opq.pq = four;
  opq.pq.m = 4;
  opq.outer_iters = 2;
  const auto pq4 = quant::PqQuantizer::Train(data, four);
  const auto pq8 = quant::PqQuantizer::Train(data, eight);
  const auto split = quant::TrainSplitPq(data, eight);
  const auto rotated = quant::TrainOpq(data, opq);

  const std::string path = ::testing::TempDir() + "/loader_fuzz.bin";
  std::mt19937_64 rng(kSeed);
  for (const Artifact& a : SavedArtifacts(data, *pq4, *pq8, *split, *rotated)) {
    WriteBytes(path, a.bytes);
    ASSERT_TRUE(a.load(path).ok()) << a.name << " does not load intact";
    size_t loaded = 0;
    for (size_t i = 0; i < kMutantsPerArtifact; ++i) {
      std::string what;
      std::vector<uint8_t> mutant = Mutate(a.bytes, rng, &what);
      const bool rewritten = i % 2 == 1;
      if (rewritten) RewriteTrailer(&mutant);
      WriteBytes(path, mutant);
      const Status st = a.load(path);
      loaded += st.ok() ? 1 : 0;
      if (!rewritten && mutant != a.bytes) {
        EXPECT_FALSE(st.ok()) << a.name << ", mutant " << i << " (" << what
                              << "): loaded without a valid trailer";
      }
    }
    std::printf("%-30s %zu mutants: %zu loaded, %zu rejected\n",
                a.name.c_str(), kMutantsPerArtifact, loaded,
                kMutantsPerArtifact - loaded);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rpq
