#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/deadline.h"
#include "common/distance.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/async_io.h"
#include "disk/disk_index.h"
#include "disk/ssd_simulator.h"
#include "eval/recall.h"
#include "graph/vamana.h"
#include "quant/adc.h"
#include "quant/pq.h"

namespace rpq::disk {
namespace {

TEST(SsdSimulatorTest, RoundsBlockToSectors) {
  SsdOptions opt;
  opt.sector_bytes = 512;
  SsdSimulator ssd(4, 600, opt);
  EXPECT_EQ(ssd.block_bytes(), 1024u);
  EXPECT_EQ(ssd.sectors_per_block(), 2u);
  EXPECT_EQ(ssd.DeviceBytes(), 4096u);
}

TEST(SsdSimulatorTest, ReadBackWhatWasWritten) {
  SsdSimulator ssd(2, 100, {});
  std::vector<uint8_t> in(100);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i);
  ssd.WriteBlock(1, in.data(), in.size());
  IoStats stats;
  Result<const uint8_t*> out = ssd.ReadBlock(1, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(in, std::vector<uint8_t>(out.value(), out.value() + in.size()));
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.bytes, ssd.block_bytes());
}

TEST(SsdSimulatorTest, LatencyAccountingIsDeterministic) {
  SsdOptions opt;
  opt.read_latency_seconds = 1e-4;
  opt.bandwidth_bytes_per_s = 1e9;
  SsdSimulator ssd(8, 4096, opt);
  IoStats stats;
  for (int i = 0; i < 10; ++i) ssd.ReadBlock(0, &stats);
  EXPECT_EQ(stats.reads, 10u);
  double expected = 10 * (1e-4 + ssd.block_bytes() / 1e9);
  EXPECT_NEAR(stats.simulated_seconds, expected, 1e-9);
}

class DiskIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synthetic::MakeBaseAndQueries("sift", 1500, 30, 61, &base_, &queries_);
    graph::VamanaOptions vopt;
    vopt.degree = 16;
    vopt.build_beam = 32;
    graph_ = graph::BuildVamana(base_, vopt);
    quant::PqOptions popt;
    popt.m = 16;
    popt.k = 64;
    pq_ = quant::PqQuantizer::Train(base_, popt);
    index_ = DiskIndex::Build(base_, graph_, *pq_);
    gt_ = ComputeGroundTruth(base_, queries_, 10);
  }

  // Pins one disk search (io_width 1, no readahead, no faults) to
  // graph::BeamSearch over the same graph, entry and navigation oracle: the
  // disk wave driver must expand exactly the vertices BeamSearch expands.
  template <typename Oracle>
  void ExpectTraversalMatchesBeamSearch(const DiskIndex& index, Oracle& oracle,
                                        size_t q, size_t beam) {
    const float* query = queries_[q];
    const DiskSearchResult disk = index.Search(query, 10, {beam, 10});

    // Each step expands the first beam entry not yet expanded; visited
    // marking means an evicted vertex never re-enters the beam, so "not yet
    // expanded" is decided by id.
    std::vector<uint32_t> expanded;
    std::unordered_set<uint32_t> seen;
    graph::VisitedTable visited(base_.size());
    graph::SearchStats stats;
    graph::BeamSearch(graph_, graph_.entry_point(), oracle, {beam, 10},
                      &visited, &stats, [&](const std::vector<Neighbor>& b) {
                        for (const Neighbor& n : b) {
                          if (seen.insert(n.id).second) {
                            expanded.push_back(n.id);
                            return;
                          }
                        }
                      });

    EXPECT_EQ(disk.stats.hops, stats.hops) << "query " << q << " beam " << beam;
    EXPECT_EQ(disk.stats.visited_hits, stats.visited_hits)
        << "query " << q << " beam " << beam;
    // One exact rerank per fetched node on top of the estimates.
    EXPECT_EQ(disk.stats.dist_comps, stats.dist_comps + stats.hops)
        << "query " << q << " beam " << beam;

    std::vector<Neighbor> exact;
    for (uint32_t v : expanded) {
      exact.push_back({SquaredL2(query, base_[v], base_.dim()), v});
    }
    std::sort(exact.begin(), exact.end());
    if (exact.size() > 10) exact.resize(10);
    EXPECT_EQ(disk.results, exact) << "query " << q << " beam " << beam;
  }

  Dataset base_, queries_;
  graph::ProximityGraph graph_;
  std::unique_ptr<quant::PqQuantizer> pq_;
  std::unique_ptr<DiskIndex> index_;
  std::vector<std::vector<Neighbor>> gt_;
};

TEST_F(DiskIndexTest, HopsEqualBlockReads) {
  auto res = index_->Search(queries_[0], 10, {32, 10});
  EXPECT_EQ(res.stats.hops, res.io.reads);
  EXPECT_GT(res.stats.hops, 0u);
  EXPECT_GT(res.io.simulated_seconds, 0.0);
}

TEST_F(DiskIndexTest, ResultsAreExactDistancesAscending) {
  auto res = index_->Search(queries_[1], 10, {48, 10});
  ASSERT_EQ(res.results.size(), 10u);
  for (size_t i = 0; i < res.results.size(); ++i) {
    float exact =
        SquaredL2(queries_[1], base_[res.results[i].id], base_.dim());
    EXPECT_FLOAT_EQ(res.results[i].dist, exact);
    if (i > 0) EXPECT_LE(res.results[i - 1].dist, res.results[i].dist);
  }
}

TEST_F(DiskIndexTest, RerankingReachesHighRecall) {
  std::vector<std::vector<Neighbor>> results(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    results[q] = index_->Search(queries_[q], 10, {64, 10}).results;
  }
  // Full-precision rerank should lift recall well above the raw PQ level.
  EXPECT_GT(eval::MeanRecallAtK(results, gt_, 10), 0.8);
}

TEST_F(DiskIndexTest, MemoryFootprintIsCodesPlusModel) {
  EXPECT_EQ(index_->MemoryBytes(),
            base_.size() * pq_->code_size() + pq_->ModelSizeBytes());
  // The memory side must be far smaller than raw vectors (the whole point).
  EXPECT_LT(index_->MemoryBytes(),
            base_.size() * base_.dim() * sizeof(float) / 4);
}

TEST_F(DiskIndexTest, WiderBeamMoreIo) {
  auto narrow = index_->Search(queries_[2], 10, {16, 10});
  auto wide = index_->Search(queries_[2], 10, {128, 10});
  EXPECT_GT(wide.io.reads, narrow.io.reads);
}

// ---- Async DiskIndex v2 (queue-depth submission + readahead) ----

TEST(AsyncIoContextTest, WaveChargesOverlappedTime) {
  SsdOptions opt;
  opt.read_latency_seconds = 1e-4;
  opt.bandwidth_bytes_per_s = 1e12;  // cost ~= pure latency
  opt.queue_depth = 4;
  SsdSimulator ssd(8, 4096, opt);
  const double c = 1e-4 + ssd.block_bytes() / 1e12;

  AsyncIoContext aio(ssd, opt.queue_depth);
  std::vector<IoCompletion> done;
  IoStats stats;

  // A wave of 8 uniform reads at QD 4 charges sum/QD, not the serial sum.
  for (uint32_t i = 0; i < 8; ++i) aio.SubmitRead(i, i);
  EXPECT_EQ(aio.PollCompletions(&done, &stats), 8u);
  EXPECT_EQ(done.size(), 8u);
  EXPECT_EQ(stats.reads, 8u);
  EXPECT_EQ(stats.io_waves, 1u);
  EXPECT_NEAR(stats.simulated_seconds, 8 * c / 4, 1e-12);

  // A wave of one read charges exactly its serial cost — the property that
  // keeps io_width=1 bit-identical to the synchronous path.
  IoStats one;
  aio.SubmitRead(0, 0);
  aio.PollCompletions(&done, &one);
  EXPECT_DOUBLE_EQ(one.simulated_seconds, c);
}

TEST(AsyncIoContextTest, CompletionHandsOutTheDeviceBlock) {
  SsdSimulator ssd(2, 100, {});
  std::vector<uint8_t> in(100);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(3 * i);
  ssd.WriteBlock(1, in.data(), in.size());
  AsyncIoContext aio(ssd, 8);
  std::vector<IoCompletion> done;
  IoStats stats;
  aio.SubmitRead(1, 7);
  ASSERT_EQ(aio.PollCompletions(&done, &stats), 1u);
  EXPECT_TRUE(done[0].status.ok());
  EXPECT_EQ(done[0].block, 1u);
  EXPECT_EQ(done[0].user_data, 7u);
  ASSERT_NE(done[0].data, nullptr);
  EXPECT_EQ(in, std::vector<uint8_t>(done[0].data, done[0].data + in.size()));

  // A failed read names no bytes.
  SsdOptions failing;
  failing.transient_error_rate = 1.0;
  SsdSimulator bad(2, 100, failing);
  AsyncIoContext bad_aio(bad, 8);
  bad_aio.SubmitRead(1, 7);
  ASSERT_EQ(bad_aio.PollCompletions(&done, &stats), 1u);
  EXPECT_EQ(done[0].status.code(), StatusCode::kIOError);
  EXPECT_EQ(done[0].data, nullptr);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.io_errors, 1u);
}

TEST(PrefetchCacheTest, FifoEvictionAndTake) {
  PrefetchCache cache(2);
  const uint8_t blocks[3] = {1, 2, 3};
  cache.Insert(1, &blocks[0]);
  cache.Insert(2, &blocks[1]);
  cache.Insert(3, &blocks[2]);  // evicts 1 (FIFO)
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.Take(2), &blocks[1]);
  EXPECT_FALSE(cache.Contains(2));  // Take removes
  EXPECT_TRUE(cache.Contains(3));
}

TEST_F(DiskIndexTest, AsyncWidthOneMatchesSequentialBitForBit) {
  // The device queue depth cannot change a width-1 search: every wave holds
  // one read, which charges exactly its serial cost. Results, hops, reads,
  // and simulated time must match across queue depths bit for bit.
  DiskIndexOptions dopt;
  dopt.ssd.queue_depth = 1;
  auto qd1 = DiskIndex::Build(base_, graph_, *pq_, dopt);
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto a = index_->Search(queries_[q], 10, {32, 10});  // default QD 8
    auto b = qd1->Search(queries_[q], 10, {32, 10});
    EXPECT_EQ(a.results, b.results) << "query " << q;
    EXPECT_EQ(a.stats.hops, b.stats.hops);
    EXPECT_EQ(a.io.reads, b.io.reads);
    EXPECT_DOUBLE_EQ(a.io.simulated_seconds, b.io.simulated_seconds);
  }
}

TEST_F(DiskIndexTest, ReadaheadKeepsResultsIdenticalAndEarnsItsReads) {
  // At io_width=1 speculation cannot change what gets expanded or scored —
  // a hit only removes a future demand wave — so results stay identical
  // while simulated time can only shrink (uniform read costs, QD 8 absorbs
  // the speculative reads inside each wave).
  DiskIndexOptions dopt;
  dopt.readahead = 4;
  auto ra = DiskIndex::Build(base_, graph_, *pq_, dopt);
  size_t issued = 0, hits = 0, wasted = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto plain = index_->Search(queries_[q], 10, {32, 10});
    auto spec = ra->Search(queries_[q], 10, {32, 10});
    EXPECT_EQ(plain.results, spec.results) << "query " << q;
    EXPECT_EQ(plain.stats.hops, spec.stats.hops);
    EXPECT_EQ(spec.io.prefetch_hits + spec.io.prefetch_wasted,
              spec.io.prefetch_issued);
    EXPECT_LE(spec.io.simulated_seconds, plain.io.simulated_seconds + 1e-12);
    issued += spec.io.prefetch_issued;
    hits += spec.io.prefetch_hits;
    wasted += spec.io.prefetch_wasted;
  }
  ASSERT_GT(issued, 0u);
  EXPECT_EQ(hits + wasted, issued);
  // Acceptance pin: the beam-rank predictor earns its speculative reads.
  EXPECT_GE(static_cast<double>(hits), 0.5 * static_cast<double>(issued));
}

TEST_F(DiskIndexTest, AdcTraversalMatchesBeamSearch) {
  ASSERT_FALSE(index_->fastscan_routing());
  const std::vector<uint8_t> codes = pq_->EncodeDataset(base_);
  for (size_t q = 0; q < queries_.size(); ++q) {
    quant::AdcTable table(*pq_, queries_[q]);
    quant::AdcBatchOracle oracle{table, codes.data(), pq_->code_size()};
    for (size_t beam : {16u, 32u, 64u}) {
      ExpectTraversalMatchesBeamSearch(*index_, oracle, q, beam);
    }
  }
}

TEST_F(DiskIndexTest, FastScanTraversalMatchesBeamSearch) {
  quant::PqOptions popt;
  popt.m = 32;
  popt.nbits = 4;
  auto pq4 = quant::PqQuantizer::Train(base_, popt);
  auto index = DiskIndex::Build(base_, graph_, *pq4);
  ASSERT_TRUE(index->fastscan_routing());
  const std::vector<uint8_t> codes = pq4->EncodeDataset(base_);
  const auto blocks = quant::PackedNeighborBlocks::Build(graph_, codes.data(),
                                                         pq4->code_size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    quant::FastScanTable table(*pq4, queries_[q]);
    quant::FastScanNeighborOracle oracle(table, codes.data(), pq4->code_size(),
                                         blocks);
    for (size_t beam : {16u, 32u, 64u}) {
      ExpectTraversalMatchesBeamSearch(*index, oracle, q, beam);
    }
  }
}

TEST_F(DiskIndexTest, WideWavesCutSimulatedTimeRecallNeutral) {
  // The same layout built with 8-wide waves: at QD 8 they overlap what the
  // sequential path serializes.
  DiskIndexOptions dopt;
  dopt.io_width = 8;
  auto wide = DiskIndex::Build(base_, graph_, *pq_, dopt);
  double sync_io = 0, async_io = 0;
  std::vector<std::vector<Neighbor>> sync_res(queries_.size());
  std::vector<std::vector<Neighbor>> async_res(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto a = index_->Search(queries_[q], 10, {64, 10});
    auto b = wide->Search(queries_[q], 10, {64, 10});
    sync_io += a.io.simulated_seconds;
    async_io += b.io.simulated_seconds;
    sync_res[q] = std::move(a.results);
    async_res[q] = std::move(b.results);
  }
  EXPECT_LT(async_io, sync_io / 3.0);
  const double r_sync = eval::MeanRecallAtK(sync_res, gt_, 10);
  const double r_async = eval::MeanRecallAtK(async_res, gt_, 10);
  EXPECT_GE(r_async, r_sync - 0.02);  // recall-neutral within tolerance
}

TEST_F(DiskIndexTest, PrefetchAccountingStaysConsistentUnderFaults) {
  // Seeded errors and latency spikes fire on demand AND speculative reads;
  // demand reads retry (PR 8 semantics), failed speculation is dropped, and
  // the hit/waste ledger still balances.
  DiskIndexOptions dopt;
  dopt.ssd.transient_error_rate = 0.05;
  dopt.ssd.latency_spike_rate = 0.05;
  dopt.ssd.fault_seed = 9;
  dopt.io_width = 4;
  dopt.readahead = 4;
  auto idx = DiskIndex::Build(base_, graph_, *pq_, dopt);
  IoStats total;
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto res = idx->Search(queries_[q], 10, {48, 10});
    EXPECT_EQ(res.results.size(), 10u) << "query " << q;
    EXPECT_EQ(res.io.prefetch_hits + res.io.prefetch_wasted,
              res.io.prefetch_issued);
    total.io_errors += res.io.io_errors;
    total.retries += res.io.retries;
    total.latency_spikes += res.io.latency_spikes;
    total.prefetch_issued += res.io.prefetch_issued;
    total.prefetch_hits += res.io.prefetch_hits;
  }
  EXPECT_GT(total.io_errors, 0u);
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.latency_spikes, 0u);
  EXPECT_GT(total.prefetch_issued, 0u);
  EXPECT_GT(total.prefetch_hits, 0u);
}

TEST_F(DiskIndexTest, UnreadableBlockExhaustsRetriesAndDegrades) {
  // Every read fails: the entry block is retried three times, then skipped.
  // Nothing is ever fetched, so nothing is expanded past the entry,
  // speculated on, or returned.
  DiskIndexOptions dopt;
  dopt.ssd.transient_error_rate = 1.0;
  dopt.io_width = 8;
  dopt.readahead = 4;
  auto idx = DiskIndex::Build(base_, graph_, *pq_, dopt);
  const DiskSearchResult res = idx->Search(queries_[0], 10, {32, 10, {}});
  EXPECT_EQ(res.stats.hops, 1u);
  EXPECT_EQ(res.io.reads, 0u);
  EXPECT_EQ(res.io.io_errors, 4u);
  EXPECT_EQ(res.io.retries, 3u);
  EXPECT_EQ(res.io.prefetch_issued, 0u);
  EXPECT_TRUE(res.degraded);
  EXPECT_FALSE(res.stats.deadline_hit);
  EXPECT_TRUE(res.results.empty());
  // Four one-read waves, each charging the failed attempt's full cost, plus
  // a 50 us backoff per retry.
  const double block_bytes =
      static_cast<double>(idx->DeviceBytes() / idx->num_vertices());
  const double read = dopt.ssd.read_latency_seconds +
                      block_bytes / dopt.ssd.bandwidth_bytes_per_s;
  EXPECT_NEAR(res.io.simulated_seconds, 4 * read + 3 * 50e-6, 1e-12);
}

TEST_F(DiskIndexTest, DeadlineExpiresMidWaveReturnsDegradedPartial) {
  // QD 2 with 8-wide waves makes one neighbor wave cost ~8*100us/2 = 400us
  // of simulated time — past a 300us budget, so the search must stop at the
  // next wave boundary with a degraded partial answer.
  DiskIndexOptions dopt;
  dopt.ssd.queue_depth = 2;
  dopt.io_width = 8;
  auto idx = DiskIndex::Build(base_, graph_, *pq_, dopt);
  graph::BeamSearchOptions bopt;
  bopt.beam_width = 64;
  bopt.k = 10;
  bopt.deadline = Deadline::AfterMicros(300);
  auto res = idx->Search(queries_[0], 10, bopt);
  EXPECT_TRUE(res.degraded);
  EXPECT_TRUE(res.stats.deadline_hit);
  EXPECT_FALSE(res.results.empty());
  // Entry wave (1 read) + one 8-wide wave at most before the budget check.
  EXPECT_LE(res.stats.hops, 9u);
  EXPECT_LT(res.results.size(), 10u);
}

}  // namespace
}  // namespace rpq::disk
