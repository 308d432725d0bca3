// Fault-tolerance tests: crash-safe index formats (CRC trailers, atomic
// writes, pre-CRC layouts rejected), the seeded injection harness
// (determinism, plan parsing), disk retry/deadline degradation, sharded
// stall / timeout / hedge behavior, and engine admission control. Every
// failure here must be a clean Status or a degraded result — never an abort.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "disk/ssd_simulator.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "quant/pq.h"
#include "quant/serialize.h"
#include "serve/engine.h"
#include "serve/ivf_service.h"
#include "serve/search_service.h"
#include "serve/sharded.h"

namespace rpq {
namespace {

// ---------------------------------------------------------------- helpers

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::vector<uint8_t> bytes(static_cast<size_t>(FileSize(path)));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Recomputes the CRC32 trailer (the last 4 bytes) over everything before
// it, so the loader's own checks run past the checksum.
void RewriteTrailer(std::vector<uint8_t>* bytes) {
  const uint32_t crc = io::Crc32Update(0, bytes->data(), bytes->size() - 4);
  std::memcpy(bytes->data() + bytes->size() - 4, &crc, 4);
}

// Flips one bit in the byte at `offset` (negative = from the end).
void FlipBit(const std::string& path, long offset) {
  if (offset < 0) offset += FileSize(path);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

std::unique_ptr<quant::PqQuantizer> SmallModel(const Dataset& d) {
  quant::PqOptions opt;
  opt.m = 4;
  opt.k = 16;
  opt.kmeans_iters = 4;
  return quant::PqQuantizer::Train(d, opt);
}

// ------------------------------------------------------ CRC32 / AtomicFile

TEST(CrcTest, KnownAnswer) {
  // The standard (zlib-polynomial) check value.
  EXPECT_EQ(io::Crc32Update(0, "123456789", 9), 0xCBF43926u);
}

TEST(AtomicFileTest, CommitPublishesAbandonDoesNot) {
  const std::string committed = TempPath("atomic_commit.bin");
  const std::string abandoned = TempPath("atomic_abandon.bin");
  {
    io::AtomicFile f(committed);
    ASSERT_TRUE(static_cast<bool>(f));
    std::fputs("payload", f.get());
    ASSERT_TRUE(f.Commit().ok());
  }
  EXPECT_TRUE(FileExists(committed));
  EXPECT_FALSE(FileExists(committed + ".tmp"));
  {
    io::AtomicFile f(abandoned);
    ASSERT_TRUE(static_cast<bool>(f));
    std::fputs("partial", f.get());
    // No Commit: simulated crash mid-save.
  }
  EXPECT_FALSE(FileExists(abandoned));
  EXPECT_FALSE(FileExists(abandoned + ".tmp"));
  std::remove(committed.c_str());
}

// ------------------------------------------------------------ fault plans

TEST(FaultPlanTest, ParsesPointsAndSeed) {
  fault::Plan plan;
  std::string err;
  ASSERT_TRUE(
      fault::ParsePlan("disk_read_error=0.25,shard_stall=1,seed=9", &plan, &err))
      << err;
  EXPECT_DOUBLE_EQ(plan.rate(fault::Point::kDiskReadError), 0.25);
  EXPECT_DOUBLE_EQ(plan.rate(fault::Point::kShardStall), 1.0);
  EXPECT_DOUBLE_EQ(plan.rate(fault::Point::kDiskLatencySpike), 0.0);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_TRUE(plan.any());

  // Every digit of a 64-bit seed is kept: 2^53 + 1 and 2^64 - 1 are not
  // rounded through a double.
  ASSERT_TRUE(fault::ParsePlan("seed=9007199254740993", &plan, &err)) << err;
  EXPECT_EQ(plan.seed, 9007199254740993u);
  ASSERT_TRUE(fault::ParsePlan("seed=18446744073709551615", &plan, &err))
      << err;
  EXPECT_EQ(plan.seed, 18446744073709551615u);
}

TEST(FaultPlanTest, RejectsUnknownPointAndBadRate) {
  fault::Plan plan;
  std::string err;
  EXPECT_FALSE(fault::ParsePlan("warp_core_breach=1", &plan, &err));
  EXPECT_FALSE(fault::ParsePlan("disk_read_error=nope", &plan, &err));
  EXPECT_FALSE(fault::ParsePlan("disk_read_error=2.0", &plan, &err));
  EXPECT_FALSE(fault::ParsePlan("disk_read_error=nan", &plan, &err));
  // A seed is a decimal integer in [0, 2^64).
  for (const char* seed : {"seed=-1", "seed=18446744073709551616", "seed=1.5",
                           "seed=", "seed=+3", "seed=0x10"}) {
    EXPECT_FALSE(fault::ParsePlan(seed, &plan, &err)) << seed;
  }
}

TEST(FaultInjectorTest, DecisionsAreSeedDeterministic) {
  fault::Plan plan;
  plan.set_rate(fault::Point::kDiskReadError, 0.3);
  plan.seed = 7;
  fault::Injector a(plan), b(plan);
  std::vector<bool> fa, fb;
  size_t fired = 0;
  for (int i = 0; i < 200; ++i) {
    bool f = a.FireQuiet(fault::Point::kDiskReadError);
    fired += f ? 1 : 0;
    fa.push_back(f);
    fb.push_back(b.FireQuiet(fault::Point::kDiskReadError));
  }
  EXPECT_EQ(fa, fb);       // same plan -> identical decision sequence
  EXPECT_GT(fired, 20u);   // ~60 expected at rate 0.3
  EXPECT_LT(fired, 120u);
  EXPECT_EQ(a.calls(fault::Point::kDiskReadError), 200u);

  // A different seed gives a different sequence (with overwhelming odds).
  plan.seed = 8;
  fault::Injector c(plan);
  std::vector<bool> fc;
  for (int i = 0; i < 200; ++i) {
    fc.push_back(c.FireQuiet(fault::Point::kDiskReadError));
  }
  EXPECT_NE(fa, fc);
}

TEST(FaultInjectorTest, RateEdgesNeverAndAlways) {
  fault::Plan plan;
  plan.set_rate(fault::Point::kShardStall, 1.0);
  fault::Injector inj(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.FireQuiet(fault::Point::kShardStall));
    EXPECT_FALSE(inj.FireQuiet(fault::Point::kAllocFailure));  // rate 0
  }
}

TEST(FaultInjectorTest, ScopedPlanInstallsAndRestores) {
  const bool was_enabled = fault::GlobalFaultsEnabled();
  {
    fault::Plan plan;
    plan.set_rate(fault::Point::kAllocFailure, 1.0);
    fault::ScopedPlan scoped(plan);
    EXPECT_TRUE(fault::GlobalFaultsEnabled());
    EXPECT_TRUE(fault::GlobalInjector().FireQuiet(fault::Point::kAllocFailure));
  }
  EXPECT_EQ(fault::GlobalFaultsEnabled(), was_enabled);
}

// ------------------------------------------------------------ SSD faults

TEST(SsdFaultTest, TransientErrorsSurfaceAsStatusAndCount) {
  disk::SsdOptions opt;
  opt.transient_error_rate = 1.0;
  disk::SsdSimulator ssd(4, 256, opt);
  disk::IoStats stats;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(ssd.ReadBlock(0, &stats).ok());
  }
  EXPECT_EQ(stats.io_errors, 5u);
  // A failed attempt still burned device time.
  EXPECT_GT(stats.simulated_seconds, 0.0);
}

TEST(SsdFaultTest, OutOfRangeBlockIsStatusNotAbort) {
  disk::SsdSimulator ssd(2, 128, {});
  disk::IoStats stats;
  EXPECT_FALSE(ssd.ReadBlock(99, &stats).ok());
}

TEST(SsdFaultTest, LatencySpikesMultiplyCost) {
  disk::SsdOptions plain_opt;
  plain_opt.read_latency_seconds = 1e-4;
  disk::SsdOptions spiky_opt = plain_opt;
  spiky_opt.latency_spike_rate = 1.0;
  spiky_opt.latency_spike_multiplier = 20.0;
  disk::SsdSimulator plain(4, 256, plain_opt), spiky(4, 256, spiky_opt);
  disk::IoStats ps, ss;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(plain.ReadBlock(0, &ps).ok());
    ASSERT_TRUE(spiky.ReadBlock(0, &ss).ok());
  }
  EXPECT_EQ(ss.latency_spikes, 10u);
  EXPECT_NEAR(ss.simulated_seconds, 20.0 * ps.simulated_seconds, 1e-9);
}

// ----------------------------------------------------- disk index + serve

class ServingFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synthetic::MakeBaseAndQueries("sift", 1200, 8, 17, &base_, &queries_);
    graph::VamanaOptions vopt;
    vopt.degree = 16;
    vopt.build_beam = 32;
    graph_ = graph::BuildVamana(base_, vopt);
    model_ = SmallModel(base_);
  }

  Dataset base_, queries_;
  graph::ProximityGraph graph_;
  std::unique_ptr<quant::PqQuantizer> model_;
};

TEST_F(ServingFaultTest, DiskRetriesRecoverTransientErrors) {
  disk::DiskIndexOptions opt;
  opt.ssd.transient_error_rate = 0.05;
  opt.ssd.fault_seed = 3;
  auto index = disk::DiskIndex::Build(base_, graph_, *model_, opt);
  graph::BeamSearchOptions bopt;
  bopt.beam_width = 32;
  bopt.k = 10;
  size_t retries = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto res = index->Search(queries_[q], 10, bopt);
    EXPECT_EQ(res.results.size(), 10u) << "query " << q;
    retries += res.io.retries;
    // Every retry was provoked by an error; a block that exhausts its
    // retries adds a final un-retried error, so retries <= errors.
    EXPECT_LE(res.io.retries, res.io.io_errors);
  }
  // At a 5% error rate over hundreds of block reads, retries must happen —
  // deterministically, from the seeded plan.
  EXPECT_GT(retries, 0u);
}

TEST_F(ServingFaultTest, DiskDeadlineReturnsDegradedPartial) {
  auto index = disk::DiskIndex::Build(base_, graph_, *model_);
  serve::DiskIndexService service(*index);
  serve::QuerySpec spec{queries_[0], 10, 32};
  spec.deadline_us = 1;
  serve::QueryResult r = service.Search(spec);
  EXPECT_TRUE(r.deadline_exceeded);
  EXPECT_TRUE(r.degraded);
  // Unconstrained, the same query serves fine.
  spec.deadline_us = 0;
  r = service.Search(spec);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.results.size(), 10u);
}

TEST_F(ServingFaultTest, MemoryDeadlineReturnsDegradedPartial) {
  auto index = core::MemoryIndex::Build(base_, graph_, *model_);
  serve::MemoryIndexService service(*index);
  serve::QuerySpec spec{queries_[0], 10, 64};
  spec.deadline_us = 1;
  serve::QueryResult r = service.Search(spec);
  EXPECT_TRUE(r.deadline_exceeded);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.results.empty());  // best-so-far, ranked
  spec.deadline_us = 0;
  r = service.Search(spec);
  EXPECT_FALSE(r.deadline_exceeded);
}

TEST_F(ServingFaultTest, IvfDeadlineReturnsDegraded) {
  ivf::IvfOptions iopt;
  iopt.nlist = 13;
  iopt.kmeans_iters = 4;
  auto index = ivf::IvfIndex::Build(base_, *model_, iopt);
  serve::IvfService service(*index);
  size_t exceeded = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    serve::QuerySpec spec{queries_[q], 10, 13};  // beam slot = nprobe
    spec.deadline_us = 1;
    serve::QueryResult r = service.Search(spec);
    if (r.deadline_exceeded) {
      ++exceeded;
      EXPECT_TRUE(r.degraded);
    }
  }
  EXPECT_GT(exceeded, 0u);
  serve::QuerySpec spec{queries_[0], 10, 13};
  serve::QueryResult r = service.Search(spec);
  EXPECT_FALSE(r.deadline_exceeded);
  EXPECT_EQ(r.results.size(), 10u);
}

// ------------------------------------------------------------ sharded

TEST_F(ServingFaultTest, StalledShardsAreAbandonedNotWaitedFor) {
  serve::ShardedOptions sopt;
  sopt.parallel_shards = true;
  sopt.shard_timeout_us = 20000;      // 20ms cap
  sopt.injected_stall_us = 500000;    // stalled shards sleep 500ms
  sopt.hedge_delay_us = 0;            // no rescue: shards must be lost
  auto deployment =
      serve::BuildShardedMemoryIndex(base_, *model_, 3, {}, sopt);
  ASSERT_EQ(deployment.service->num_shards(), 3u);

  fault::Plan plan;
  plan.set_rate(fault::Point::kShardStall, 1.0);  // every primary stalls
  fault::ScopedPlan scoped(plan);
  serve::QueryResult r =
      deployment.service->Search({queries_[0], 10, 32});
  EXPECT_EQ(r.shards_lost, 3u);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.results.empty());
  // Teardown note: ~ShardedService drains the abandoned stalled tasks, so
  // this test also exercises the destructor ordering contract.
}

TEST_F(ServingFaultTest, HedgesRescueStalledShards) {
  serve::ShardedOptions sopt;
  sopt.parallel_shards = true;
  sopt.shard_timeout_us = 2000000;   // generous cap (sanitizer-friendly)
  sopt.hedge_delay_us = 2000;        // hedge after 2ms
  sopt.injected_stall_us = 500000;   // primaries sleep 500ms
  auto deployment =
      serve::BuildShardedMemoryIndex(base_, *model_, 3, {}, sopt);

  // Clean reference answer first (no faults installed).
  serve::QueryResult clean =
      deployment.service->Search({queries_[0], 10, 32});
  ASSERT_EQ(clean.results.size(), 10u);

  fault::Plan plan;
  plan.set_rate(fault::Point::kShardStall, 1.0);  // hedges never roll this
  fault::ScopedPlan scoped(plan);
  serve::QueryResult hedged =
      deployment.service->Search({queries_[0], 10, 32});
  EXPECT_TRUE(hedged.hedged);
  EXPECT_EQ(hedged.shards_lost, 0u);
  ASSERT_EQ(hedged.results.size(), clean.results.size());
  for (size_t i = 0; i < clean.results.size(); ++i) {
    EXPECT_EQ(hedged.results[i].id, clean.results[i].id) << "rank " << i;
  }
}

// ------------------------------------------------------- admission control

TEST_F(ServingFaultTest, ShedWatermarkRefusesExcessLoad) {
  serve::FunctionService slow([](const serve::QuerySpec& q) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    serve::QueryResult r;
    r.results.resize(q.k);
    return r;
  });
  serve::EngineOptions eopt;
  eopt.threads = 1;
  eopt.shed_watermark = 1;
  serve::ServingEngine engine(slow, eopt);
  std::vector<std::future<serve::QueryResult>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(engine.Submit({queries_[0], 10, 32}));
  }
  size_t shed = 0, served = 0;
  for (auto& f : futs) {
    serve::QueryResult r = f.get();
    if (r.shed) {
      ++shed;
      EXPECT_TRUE(r.degraded);
      EXPECT_TRUE(r.results.empty());
    } else {
      ++served;
    }
  }
  // The first query (inflight depth 1) is admitted; the rest arrive while
  // it still runs (100ms vs microsecond submissions) and must shed.
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(shed, 3u);
}

TEST_F(ServingFaultTest, BrownoutShrinksAdmittedQueries) {
  std::mutex mu;
  std::vector<serve::QuerySpec> seen;
  serve::FunctionService slow([&](const serve::QuerySpec& q) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(q);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return serve::QueryResult{};
  });
  serve::EngineOptions eopt;
  eopt.threads = 1;
  eopt.brownout_watermark = 1;  // second concurrent query browns out
  serve::ServingEngine engine(slow, eopt);
  serve::QuerySpec spec{queries_[0], 10, 64};
  spec.rerank = 100;
  auto f1 = engine.Submit(spec);
  auto f2 = engine.Submit(spec);
  // Brownout never raises a knob: a beam already at the brownout floor of 8
  // (and below k; graph searches widen it to k themselves) stays as asked.
  auto f3 = engine.Submit({queries_[1], 10, 8});
  f1.get();
  f2.get();
  f3.get();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].beam_width, 64u);  // admitted at depth 1: untouched
  EXPECT_EQ(seen[0].rerank, 100u);
  EXPECT_EQ(seen[1].beam_width, 32u);  // depth 2 > watermark: beam halved
  EXPECT_EQ(seen[1].rerank, 50u);      // and the rerank request too
  EXPECT_LE(seen[2].beam_width, 8u);   // depth 3, browned out, not raised
}

TEST_F(ServingFaultTest, AllocFailureInjectionForcesShed) {
  serve::FunctionService fast(
      [](const serve::QuerySpec&) { return serve::QueryResult{}; });
  serve::ServingEngine engine(fast, {1});
  fault::Plan plan;
  plan.set_rate(fault::Point::kAllocFailure, 1.0);
  fault::ScopedPlan scoped(plan);
  serve::QueryResult r = engine.Submit({queries_[0], 10, 32}).get();
  EXPECT_TRUE(r.shed);
  EXPECT_TRUE(r.degraded);
}

// ------------------------------------------------- crash-safe file formats

TEST(CrashSafeFormatTest, QuantizerBitFlipIsCleanChecksumError) {
  Dataset d = synthetic::MakeGmm(300, {}, 21);
  auto pq = SmallModel(d);
  const std::string path = TempPath("flip.rpqq");
  ASSERT_TRUE(quant::SaveQuantizer(*pq, path).ok());
  FlipBit(path, FileSize(path) / 2);  // mid-payload: shape checks still pass
  auto loaded = quant::LoadQuantizer(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CrashSafeFormatTest, QuantizerTruncationIsCleanError) {
  Dataset d = synthetic::MakeGmm(300, {}, 21);
  auto pq = SmallModel(d);
  const std::string path = TempPath("trunc.rpqq");
  ASSERT_TRUE(quant::SaveQuantizer(*pq, path).ok());
  ASSERT_EQ(truncate(path.c_str(), FileSize(path) - 2), 0);
  EXPECT_FALSE(quant::LoadQuantizer(path).ok());
  std::remove(path.c_str());
}

TEST(CrashSafeFormatTest, LegacyV1QuantizerIsRejected) {
  // Hand-written v1 file: pre-CRC header + codebook, no trailer.
  const std::string path = TempPath("legacy.rpqq");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t version = 1, dim = 32, m = 4, k = 16;
  const uint8_t has_rot = 0;
  std::fwrite("RPQQ", 1, 4, f);
  std::fwrite(&version, 4, 1, f);
  std::fwrite(&dim, 4, 1, f);
  std::fwrite(&m, 4, 1, f);
  std::fwrite(&k, 4, 1, f);
  std::fwrite(&has_rot, 1, 1, f);
  std::vector<float> book(size_t{m} * k * (dim / m), 0.25f);
  std::fwrite(book.data(), sizeof(float), book.size(), f);
  std::fclose(f);
  auto loaded = quant::LoadQuantizer(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().ToString().find("unsupported version"),
            std::string::npos);
  std::remove(path.c_str());
}

// Flipping bit 0 of a plain model's version word (3 -> 2) once named the
// pre-CRC split layout: the first codebook byte read as has_split and the
// rest as level codebooks, with no trailer check, so a one-bit error loaded
// a garbage model. Only versions 3 and 4 load now.
TEST(CrashSafeFormatTest, QuantizerVersionBitFlipIsRejected) {
  quant::Codebook book(4, 256, 8);
  std::fill(book.data(), book.data() + book.num_floats(), 0.3f);
  const quant::PqQuantizer pq(std::move(book), std::nullopt);
  const std::string path = TempPath("version_flip.rpqq");
  ASSERT_TRUE(quant::SaveQuantizer(pq, path).ok());
  ASSERT_TRUE(quant::LoadQuantizer(path).ok());
  std::vector<uint8_t> bytes = ReadBytes(path);
  ASSERT_EQ(bytes[4], 3);
  bytes[4] ^= 1;
  WriteBytes(path, bytes);
  auto loaded = quant::LoadQuantizer(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(CrashSafeFormatTest, CodesBitFlipAndLegacyLength) {
  std::vector<uint8_t> codes(64 * 4);
  for (size_t i = 0; i < codes.size(); ++i) codes[i] = uint8_t(i * 7);
  const std::string path = TempPath("codes.rpqc");
  ASSERT_TRUE(quant::SaveCodes(codes, 4, path).ok());
  size_t cs = 0;
  ASSERT_TRUE(quant::LoadCodes(path, &cs).ok());
  FlipBit(path, -6);  // inside the payload, ahead of the CRC trailer
  auto corrupt = quant::LoadCodes(path, &cs);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().ToString().find("checksum"), std::string::npos);

  // Pre-CRC layout: same header + payload but no trailer — rejected.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t n = codes.size() / 4;
  const uint32_t width = 4;
  std::fwrite("RPQC", 1, 4, f);
  std::fwrite(&n, 8, 1, f);
  std::fwrite(&width, 4, 1, f);
  std::fwrite(codes.data(), 1, codes.size(), f);
  std::fclose(f);
  auto legacy = quant::LoadCodes(path, &cs);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(CrashSafeFormatTest, GraphRoundTripFlipAndLegacy) {
  graph::ProximityGraph g(4);
  g.set_entry_point(2);
  g.Neighbors(0) = {1, 2};
  g.Neighbors(1) = {0, 3};
  g.Neighbors(2) = {3};
  g.Neighbors(3) = {0, 1, 2};
  const std::string path = TempPath("graph.bin");
  ASSERT_TRUE(g.Save(path).ok());
  auto round = graph::ProximityGraph::Load(path);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().entry_point(), 2u);
  EXPECT_EQ(round.value().Neighbors(3), g.Neighbors(3));

  FlipBit(path, FileSize(path) / 2);
  EXPECT_FALSE(graph::ProximityGraph::Load(path).ok());

  ASSERT_TRUE(g.Save(path).ok());
  ASSERT_EQ(truncate(path.c_str(), FileSize(path) - 3), 0);
  EXPECT_FALSE(graph::ProximityGraph::Load(path).ok());

  // Pre-CRC layout (no magic, no trailer): header starts at the raw count.
  // It is not an RPQ graph file.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t n = 2;
  const uint32_t entry = 1;
  std::fwrite(&n, 8, 1, f);
  std::fwrite(&entry, 4, 1, f);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t deg = 1, nb = (v + 1) % 2;
    std::fwrite(&deg, 4, 1, f);
    std::fwrite(&nb, 4, 1, f);
  }
  std::fclose(f);
  auto legacy = graph::ProximityGraph::Load(path);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(CrashSafeFormatTest, IvfBitFlipIsCleanError) {
  Dataset base = synthetic::MakeGmm(500, {}, 33);
  auto pq = SmallModel(base);
  ivf::IvfOptions opt;
  opt.nlist = 8;
  opt.kmeans_iters = 4;
  auto index = ivf::IvfIndex::Build(base, *pq, opt);
  const std::string path = TempPath("index.rpqi");
  ASSERT_TRUE(index->Save(path).ok());
  ASSERT_TRUE(ivf::IvfIndex::Load(path, *pq).ok());
  FlipBit(path, FileSize(path) / 2);
  auto corrupt = ivf::IvfIndex::Load(path, *pq);
  EXPECT_FALSE(corrupt.ok());
  std::remove(path.c_str());
}

// An RPQI v3 file relabelled v2 (the pre-CRC layout, which a loader once
// read without checking the trailer) is an unsupported version.
TEST(CrashSafeFormatTest, IvfRelabelledV2IsRejected) {
  Dataset base = synthetic::MakeGmm(500, {}, 33);
  auto pq = SmallModel(base);
  ivf::IvfOptions opt;
  opt.nlist = 8;
  opt.kmeans_iters = 4;
  auto index = ivf::IvfIndex::Build(base, *pq, opt);
  const std::string path = TempPath("relabelled.rpqi");
  ASSERT_TRUE(index->Save(path).ok());
  std::vector<uint8_t> bytes = ReadBytes(path);
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 4, &v2, 4);
  WriteBytes(path, bytes);
  auto loaded = ivf::IvfIndex::Load(path, *pq);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// The trailer ends every format: one byte appended after it is the same
// IOError as a flipped bit, for the model, codes, graph and IVF loaders.
TEST(CrashSafeFormatTest, ByteAfterTheTrailerIsRejectedInEveryFormat) {
  Dataset base = synthetic::MakeGmm(500, {}, 33);
  auto pq = SmallModel(base);
  ivf::IvfOptions opt;
  opt.nlist = 8;
  opt.kmeans_iters = 4;
  auto index = ivf::IvfIndex::Build(base, *pq, opt);
  graph::ProximityGraph g(3);
  g.Neighbors(0) = {1};
  g.Neighbors(1) = {2};
  g.Neighbors(2) = {0};
  const std::string model_path = TempPath("tail.rpqq");
  const std::string codes_path = TempPath("tail.rpqc");
  const std::string graph_path = TempPath("tail.rpqg");
  const std::string ivf_path = TempPath("tail.rpqi");
  ASSERT_TRUE(quant::SaveQuantizer(*pq, model_path).ok());
  ASSERT_TRUE(
      quant::SaveCodes(pq->EncodeDataset(base), pq->code_size(), codes_path)
          .ok());
  ASSERT_TRUE(g.Save(graph_path).ok());
  ASSERT_TRUE(index->Save(ivf_path).ok());
  size_t cs = 0;
  const std::vector<std::pair<std::string, std::function<Status()>>> formats =
      {{model_path, [&] { return quant::LoadQuantizer(model_path).status(); }},
       {codes_path, [&] { return quant::LoadCodes(codes_path, &cs).status(); }},
       {graph_path,
        [&] { return graph::ProximityGraph::Load(graph_path).status(); }},
       {ivf_path, [&] { return ivf::IvfIndex::Load(ivf_path, *pq).status(); }}};
  for (const auto& [path, load] : formats) {
    ASSERT_TRUE(load().ok()) << path;
    std::vector<uint8_t> bytes = ReadBytes(path);
    bytes.push_back(0);
    WriteBytes(path, bytes);
    const Status st = load();
    EXPECT_EQ(st.code(), StatusCode::kIOError) << path << " " << st.ToString();
    EXPECT_NE(st.ToString().find("checksum"), std::string::npos) << path;
    std::remove(path.c_str());
  }
}

// A CRC-valid RPQI file whose plain 4-bit code names a centroid past K is an
// IOError, not an abort in the FastScan packer (which takes nibbles only).
TEST(CrashSafeFormatTest, IvfCodeOutOfTheQuantizerRangeIsIOError) {
  Dataset base = synthetic::MakeGmm(500, {}, 33);
  auto pq = SmallModel(base);
  ivf::IvfOptions opt;
  opt.nlist = 8;
  opt.kmeans_iters = 4;
  auto index = ivf::IvfIndex::Build(base, *pq, opt);
  const std::string path = TempPath("bad_code.rpqi");
  ASSERT_TRUE(index->Save(path).ok());
  std::vector<uint8_t> bytes = ReadBytes(path);
  // Header: magic, version, dim, nlist, code_size, store_vectors, residual,
  // default_nprobe, num_codes; then the centroids and the lists.
  uint32_t dim = 0, nlist = 0, code_size = 0;
  std::memcpy(&dim, bytes.data() + 8, 4);
  std::memcpy(&nlist, bytes.data() + 12, 4);
  std::memcpy(&code_size, bytes.data() + 16, 4);
  ASSERT_EQ(bytes[20], 0);  // no stored vectors
  size_t pos = 34 + size_t{nlist} * dim * sizeof(float);
  uint64_t count = 0;
  for (;;) {  // the first nonempty list's first code byte
    std::memcpy(&count, bytes.data() + pos, 8);
    if (count > 0) break;
    pos += 8;
  }
  bytes[pos + 8 + count * sizeof(uint32_t)] = 0xFF;
  RewriteTrailer(&bytes);
  WriteBytes(path, bytes);
  auto loaded = ivf::IvfIndex::Load(path, *pq);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rpq
