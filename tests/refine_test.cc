// Unified refinement pipeline tests: the shared candidate buffer and
// refiner stages reproduce the three backend epilogues they replaced —
// bit-for-bit where the seed behavior was pinned (float-ADC FastScan
// rerank, IVF candidate selection) — and the new exact stage matches a
// brute-force reference on the probed candidates exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/topk.h"
#include "core/memory_index.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/beam_search.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "quant/adc.h"
#include "quant/fastscan.h"
#include "quant/pq.h"
#include "refine/refine.h"
#include "serve/ivf_service.h"
#include "serve/search_service.h"
#include "simd/simd.h"

namespace rpq {
namespace {

// ------------------------------------------------ the shared width rule ----

TEST(EffectiveRerankWidthTest, AutoRuleAndClamps) {
  // 0 = auto: max(2k, 32).
  EXPECT_EQ(refine::EffectiveRerankWidth(0, 10), 32u);   // 2k=20 < 32
  EXPECT_EQ(refine::EffectiveRerankWidth(0, 16), 32u);   // boundary
  EXPECT_EQ(refine::EffectiveRerankWidth(0, 17), 34u);   // 2k wins
  EXPECT_EQ(refine::EffectiveRerankWidth(0, 100), 200u);
  // Explicit requests are honored but never below k.
  EXPECT_EQ(refine::EffectiveRerankWidth(64, 10), 64u);
  EXPECT_EQ(refine::EffectiveRerankWidth(4, 10), 10u);
  EXPECT_EQ(refine::EffectiveRerankWidth(1, 1), 1u);
}

TEST(RerankModeTest, NamesRoundTrip) {
  for (refine::RerankMode mode :
       {refine::RerankMode::kAuto, refine::RerankMode::kAdc,
        refine::RerankMode::kExact, refine::RerankMode::kLinkCode}) {
    refine::RerankMode parsed;
    ASSERT_TRUE(refine::ParseRerankMode(refine::RerankModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  refine::RerankMode parsed;
  EXPECT_FALSE(refine::ParseRerankMode("sdc", &parsed));
  EXPECT_FALSE(refine::ParseRerankMode(nullptr, &parsed));
}

// ---------------------------------------------------- candidate buffer ----

TEST(CandidateBufferTest, KeepsBestByEstimateThenId) {
  refine::CandidateBuffer buf(3);
  EXPECT_EQ(buf.Threshold(), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(buf.Push(5.f, 50));
  EXPECT_TRUE(buf.Push(1.f, 10));
  EXPECT_TRUE(buf.Push(3.f, 30));
  EXPECT_EQ(buf.Threshold(), 5.f);
  EXPECT_FALSE(buf.Push(9.f, 90));    // worse than the worst kept
  EXPECT_TRUE(buf.Push(2.f, 20));     // evicts (5, 50)
  // Equal estimate, higher id than the kept root: rejected (strict order).
  EXPECT_FALSE(buf.Push(3.f, 31));
  // Equal estimate, lower id: kept.
  EXPECT_TRUE(buf.Push(3.f, 29));
  auto sorted = buf.TakeSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 10u);
  EXPECT_EQ(sorted[1].id, 20u);
  EXPECT_EQ(sorted[2].id, 29u);
}

TEST(CandidateBufferTest, TagsSurviveSelection) {
  refine::CandidateBuffer buf(2);
  buf.Push(2.f, 2, (uint64_t{7} << 32) | 3);
  buf.Push(1.f, 1, (uint64_t{5} << 32) | 9);
  buf.Push(3.f, 3, 42);  // worse than both kept: rejected
  auto sorted = buf.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].tag >> 32, 5u);
  EXPECT_EQ(sorted[0].tag & 0xffffffffu, 9u);
  EXPECT_EQ(sorted[1].tag >> 32, 7u);
}

// The buffer must make exactly TopK's keep/evict decisions — that is what
// keeps the disk backend's reranked results bit-pinned after its TopK
// became a CandidateBuffer.
TEST(CandidateBufferTest, MatchesTopKOnRandomStream) {
  Rng rng(123);
  for (size_t limit : {size_t(1), size_t(7), size_t(64)}) {
    TopK top(limit);
    refine::CandidateBuffer buf(limit);
    for (size_t i = 0; i < 500; ++i) {
      // Coarse quantization of the estimate makes ties frequent.
      float est = static_cast<float>(static_cast<int>(8 * rng.Uniform()));
      uint32_t id = static_cast<uint32_t>(rng.Uniform() * 100);
      EXPECT_EQ(buf.Push(est, id), top.Push(est, id)) << "i=" << i;
      EXPECT_EQ(buf.Threshold(), top.Threshold());
    }
    auto want = top.Take();
    auto got = buf.TakeSortedNeighbors(limit);
    EXPECT_EQ(got, want);
  }
}

// ------------------------------------------------------- refiner stages ----

struct RefineFixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::vector<std::vector<Neighbor>> gt;
};

RefineFixture MakeRefineFixture(size_t n = 1800, size_t nq = 16) {
  RefineFixture f;
  synthetic::MakeBaseAndQueries("sift", n, nq, /*seed=*/31, &f.base,
                                &f.queries);
  graph::VamanaOptions vopt;
  vopt.degree = 20;
  vopt.build_beam = 40;
  f.graph = graph::BuildVamana(f.base, vopt);
  quant::PqOptions popt;
  popt.m = 16;
  popt.nbits = 4;
  popt.kmeans_iters = 4;
  f.pq = quant::PqQuantizer::Train(f.base, popt);
  f.gt = ComputeGroundTruth(f.base, f.queries, 10);
  return f;
}

// The flat and resolver-based AdcRefiner constructions must agree exactly:
// the resolver path packs codes contiguously and runs the stride kernel,
// which is pinned bit-identical to the gather kernel and to per-code
// Distance().
TEST(AdcRefinerTest, FlatAndResolvedLayoutsAgreeBitForBit) {
  RefineFixture f = MakeRefineFixture(400, 4);
  auto codes = f.pq->EncodeDataset(f.base);
  const size_t m = f.pq->code_size();
  quant::AdcTable lut(*f.pq, f.queries[0]);

  std::vector<refine::Candidate> cands;
  for (uint32_t id = 0; id < 100; ++id) cands.push_back({0.f, id * 3, 0});
  refine::AdcRefiner flat(lut, codes.data(), m);
  refine::AdcRefiner resolved(lut, m,
                              [&codes, m](const refine::Candidate& c) {
                                return codes.data() + size_t{c.id} * m;
                              });
  std::vector<float> a(cands.size()), b(cands.size());
  flat.Refine(cands.data(), cands.size(), a.data());
  resolved.Refine(cands.data(), cands.size(), b.data());
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "candidate " << i;
    EXPECT_EQ(a[i], lut.Distance(codes.data() + size_t{cands[i].id} * m));
  }
}

// Replicates the seed FastScan epilogue (beam search on the u8 table, then
// float-ADC rerank of ALL survivors via the gather kernel, sort, truncate)
// and pins the refactored kAdc path to it bit-for-bit.
TEST(MemoryIndexRefineTest, AdcModeMatchesSeedEpilogueExactly) {
  RefineFixture f = MakeRefineFixture();
  auto index = core::MemoryIndex::Build(f.base, f.graph, *f.pq);
  const size_t m = f.pq->code_size();
  const size_t k = 10, beam = 48;

  auto blocks = quant::PackedNeighborBlocks::Build(
      f.graph, index->codes().data(), m);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    quant::AdcTable table(*f.pq, f.queries[q]);
    quant::FastScanTable ftable(table);
    quant::FastScanNeighborOracle oracle(ftable, index->codes().data(), m,
                                         blocks);
    const size_t beam_width = std::max(beam, k);
    const size_t rerank =
        std::min(beam_width, refine::EffectiveRerankWidth(0, k));
    graph::SearchStats stats;
    auto cands = graph::BeamSearch(f.graph, f.graph.entry_point(), oracle,
                                   {beam_width, rerank},
                                   graph::TlsVisitedTable(f.base.size()),
                                   &stats);
    std::vector<uint32_t> ids(cands.size());
    std::vector<float> dists(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) ids[i] = cands[i].id;
    table.DistanceBatchGather(index->codes().data(), m, ids.data(), ids.size(),
                              dists.data());
    std::vector<Neighbor> want;
    for (size_t i = 0; i < cands.size(); ++i) want.push_back({dists[i], ids[i]});
    std::sort(want.begin(), want.end());
    if (want.size() > k) want.resize(k);

    auto got = index->Search(f.queries[q], k, {beam, k},
                             core::DistanceMode::kFastScan);
    EXPECT_EQ(got.results, want) << "q=" << q;
  }
}

// The exact stage must equal a brute-force re-score of the same probed
// candidates — same traversal, exact squared L2, (distance, id) sort.
TEST(MemoryIndexRefineTest, ExactModeMatchesBruteForceOnProbedCandidates) {
  RefineFixture f = MakeRefineFixture();
  core::MemoryIndexOptions mopt;
  mopt.store_vectors = true;
  auto index = core::MemoryIndex::Build(f.base, f.graph, *f.pq, mopt);
  ASSERT_TRUE(index->stores_vectors());
  const size_t m = f.pq->code_size();
  const size_t k = 10, beam = 48;

  auto blocks = quant::PackedNeighborBlocks::Build(
      f.graph, index->codes().data(), m);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    quant::AdcTable table(*f.pq, f.queries[q]);
    quant::FastScanTable ftable(table);
    quant::FastScanNeighborOracle oracle(ftable, index->codes().data(), m,
                                         blocks);
    const size_t beam_width = std::max(beam, k);
    const size_t rerank =
        std::min(beam_width, refine::EffectiveRerankWidth(0, k));
    graph::SearchStats stats;
    auto cands = graph::BeamSearch(f.graph, f.graph.entry_point(), oracle,
                                   {beam_width, rerank},
                                   graph::TlsVisitedTable(f.base.size()),
                                   &stats);
    std::vector<Neighbor> want;
    for (const Neighbor& c : cands) {
      want.push_back({simd::SquaredL2(f.queries[q], f.base[c.id], f.base.dim()),
                      c.id});
    }
    std::sort(want.begin(), want.end());
    if (want.size() > k) want.resize(k);

    auto got = index->Search(f.queries[q], k, {beam, k},
                             core::DistanceMode::kFastScan,
                             {0, refine::RerankMode::kExact});
    EXPECT_EQ(got.results, want) << "q=" << q;
  }
}

// The acceptance bar: exact rerank never loses to float-ADC rerank at equal
// beam (same candidate sets, strictly better re-scoring).
TEST(MemoryIndexRefineTest, ExactRerankRecallAtLeastAdc) {
  RefineFixture f = MakeRefineFixture(2500, 24);
  core::MemoryIndexOptions mopt;
  mopt.store_vectors = true;
  auto index = core::MemoryIndex::Build(f.base, f.graph, *f.pq, mopt);
  auto recall = [&](refine::RerankMode mode) {
    std::vector<std::vector<Neighbor>> results(f.queries.size());
    for (size_t q = 0; q < f.queries.size(); ++q) {
      results[q] = index
                       ->Search(f.queries[q], 10, {64, 10},
                                core::DistanceMode::kFastScan, {64, mode})
                       .results;
    }
    return eval::MeanRecallAtK(results, f.gt, 10);
  };
  double adc = recall(refine::RerankMode::kAdc);
  double exact = recall(refine::RerankMode::kExact);
  EXPECT_GE(exact, adc) << "exact rerank must not lose to ADC at equal beam";
  // kAuto on a store_vectors index is the exact stage.
  EXPECT_EQ(recall(refine::RerankMode::kAuto), exact);
}

// store_vectors must not perturb the kAdc path: same codes, same traversal,
// same rerank — the retained rows are dead weight until kExact asks.
TEST(MemoryIndexRefineTest, AdcModeUnchangedByStoredVectors) {
  RefineFixture f = MakeRefineFixture(900, 8);
  auto plain = core::MemoryIndex::Build(f.base, f.graph, *f.pq);
  core::MemoryIndexOptions mopt;
  mopt.store_vectors = true;
  auto stored = core::MemoryIndex::Build(f.base, f.graph, *f.pq, mopt);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    auto a = plain->Search(f.queries[q], 10, {48, 10},
                           core::DistanceMode::kFastScan);
    auto b = stored->Search(f.queries[q], 10, {48, 10},
                            core::DistanceMode::kFastScan,
                            {0, refine::RerankMode::kAdc});
    EXPECT_EQ(a.results, b.results) << "q=" << q;
  }
  EXPECT_GT(stored->MemoryBytes(),
            plain->MemoryBytes() + f.base.size() * f.base.dim() * 4 - 1);
}

// SearchBatch forwards the rerank request to every query in the tile.
TEST(MemoryIndexRefineTest, SearchBatchHonorsRerankSpec) {
  RefineFixture f = MakeRefineFixture(900, 12);
  core::MemoryIndexOptions mopt;
  mopt.store_vectors = true;
  auto index = core::MemoryIndex::Build(f.base, f.graph, *f.pq, mopt);
  std::vector<const float*> ptrs;
  for (size_t q = 0; q < f.queries.size(); ++q) ptrs.push_back(f.queries[q]);
  refine::RerankSpec spec{48, refine::RerankMode::kExact};
  auto batch = index->SearchBatch(ptrs.data(), ptrs.size(), 10, {48, 10},
                                  core::DistanceMode::kFastScan, spec);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    auto single = index->Search(f.queries[q], 10, {48, 10},
                                core::DistanceMode::kFastScan, spec);
    EXPECT_EQ(batch[q].results, single.results) << "q=" << q;
  }
}

// SDC navigates on a table that quantizes the query too. Its float-ADC stage
// re-scores the beam's survivors with the query's own ADC table, so the
// answer is the top-k of the whole SDC beam by ADC distance.
TEST(MemoryIndexRefineTest, SdcAdcStageRescoresWithTheAdcTable) {
  RefineFixture f = MakeRefineFixture(900, 8);
  auto index = core::MemoryIndex::Build(f.base, f.graph, *f.pq);
  const size_t m = f.pq->code_size();
  const size_t k = 10, beam = 48;
  for (size_t q = 0; q < f.queries.size(); ++q) {
    auto got = index->Search(f.queries[q], k, {beam, k, {}},
                             core::DistanceMode::kSdc,
                             {beam, refine::RerankMode::kAdc});
    auto whole = index->Search(f.queries[q], beam, {beam, beam, {}},
                               core::DistanceMode::kSdc);
    quant::AdcTable table(*f.pq, f.queries[q]);
    std::vector<Neighbor> want;
    for (const Neighbor& c : whole.results) {
      want.push_back(
          {table.Distance(index->codes().data() + size_t{c.id} * m), c.id});
    }
    std::sort(want.begin(), want.end());
    want.resize(k);
    EXPECT_EQ(got.results, want) << "q=" << q;
  }
}

// ----------------------------------------------------------- IVF modes ----

TEST(IvfRefineTest, ModeKnobSelectsStage) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 1200, 10, /*seed=*/41, &base, &queries);
  quant::PqOptions popt;
  popt.m = 16;
  popt.nbits = 4;
  popt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(base, popt);
  ivf::IvfOptions iopt;
  iopt.nlist = 11;
  iopt.store_vectors = true;
  auto stored = ivf::IvfIndex::Build(base, *pq, iopt);
  iopt.store_vectors = false;
  auto plain = ivf::IvfIndex::Build(base, *pq, iopt);

  for (size_t q = 0; q < queries.size(); ++q) {
    ivf::IvfSearchOptions sopt;
    sopt.nprobe = 5;
    // kAuto == kExact on a store_vectors index...
    sopt.rerank_mode = refine::RerankMode::kAuto;
    auto auto_stored = stored->Search(queries[q], 10, sopt);
    sopt.rerank_mode = refine::RerankMode::kExact;
    auto exact_stored = stored->Search(queries[q], 10, sopt);
    EXPECT_EQ(auto_stored.results, exact_stored.results) << "q=" << q;
    // ...and forcing kAdc on it reproduces the no-vectors index exactly
    // (identical quantizer + k-means seeds give identical routing/codes).
    sopt.rerank_mode = refine::RerankMode::kAdc;
    auto adc_stored = stored->Search(queries[q], 10, sopt);
    sopt.rerank_mode = refine::RerankMode::kAuto;
    auto auto_plain = plain->Search(queries[q], 10, sopt);
    EXPECT_EQ(adc_stored.results, auto_plain.results) << "q=" << q;
  }
}

// A QuerySpec carrying a stage the backend cannot serve (exact without
// retained rows, linkcode without a model) must degrade to the backend
// default at the service boundary — remote callers' knobs must never abort
// the serving process.
TEST(ServiceRerankTest, UnsupportedModeDegradesToDefault) {
  RefineFixture f = MakeRefineFixture(700, 4);
  auto index = core::MemoryIndex::Build(f.base, f.graph, *f.pq);
  serve::MemoryIndexService service(*index, core::DistanceMode::kFastScan);
  serve::QuerySpec q;
  q.query = f.queries[0];
  q.k = 10;
  q.beam_width = 48;
  auto reference = service.Search(q);
  for (refine::RerankMode mode :
       {refine::RerankMode::kExact, refine::RerankMode::kLinkCode}) {
    q.rerank_mode = mode;
    EXPECT_EQ(service.Search(q).results, reference.results)
        << refine::RerankModeName(mode);
  }

  ivf::IvfOptions iopt;
  iopt.nlist = 5;
  auto ivf_index = ivf::IvfIndex::Build(f.base, *f.pq, iopt);
  serve::IvfService ivf_service(*ivf_index);
  q.beam_width = 3;  // nprobe for IVF
  q.rerank_mode = refine::RerankMode::kAuto;
  auto ivf_reference = ivf_service.Search(q);
  for (refine::RerankMode mode :
       {refine::RerankMode::kExact, refine::RerankMode::kLinkCode}) {
    q.rerank_mode = mode;
    EXPECT_EQ(ivf_service.Search(q).results, ivf_reference.results)
        << refine::RerankModeName(mode);
  }
}

TEST(IvfRefineTest, BatchForwardsMode) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 900, 8, /*seed=*/43, &base, &queries);
  quant::PqOptions popt;
  popt.m = 8;
  popt.nbits = 4;
  popt.kmeans_iters = 3;
  auto pq = quant::PqQuantizer::Train(base, popt);
  ivf::IvfOptions iopt;
  iopt.nlist = 7;
  iopt.store_vectors = true;
  auto index = ivf::IvfIndex::Build(base, *pq, iopt);
  std::vector<const float*> ptrs;
  for (size_t q = 0; q < queries.size(); ++q) ptrs.push_back(queries[q]);
  for (refine::RerankMode mode :
       {refine::RerankMode::kAdc, refine::RerankMode::kExact}) {
    ivf::IvfSearchOptions sopt;
    sopt.nprobe = 4;
    sopt.rerank_mode = mode;
    auto batch = index->SearchBatch(ptrs.data(), ptrs.size(), 10, sopt);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto single = index->Search(queries[q], 10, sopt);
      EXPECT_EQ(batch[q].results, single.results)
          << "mode=" << refine::RerankModeName(mode) << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace rpq
