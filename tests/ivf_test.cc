// IVF subsystem tests: routing + flat FastScan list scans reproduce a
// hand-rolled reference of the probed lists bit-for-bit (pre-rerank
// estimates come from the same integer-sum estimator on every SIMD
// backend), SearchBatch's multi-query LUT batching equals per-query Search,
// edge cases (tail blocks, empty lists, k > candidates, nprobe > nlist) are
// pinned, inserts match builds, save/load round-trips, and concurrent
// Search/Insert hold under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/distance.h"
#include "common/rng.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "ivf/ivf_index.h"
#include "quant/adc.h"
#include "quant/fastscan.h"
#include "quant/kmeans.h"
#include "quant/pq.h"
#include "quant/split.h"
#include "simd/simd.h"

namespace rpq {
namespace {

struct Fixture {
  Dataset base, queries;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::unique_ptr<ivf::IvfIndex> index;
  std::vector<std::vector<Neighbor>> gt;
};

Fixture MakeFixture(size_t n = 1333, size_t nq = 12, size_t nlist = 13,
                    bool store_vectors = false, size_t m = 16,
                    bool split = false) {
  // n and nlist are chosen so list lengths straddle 32-code block tails.
  Fixture f;
  synthetic::MakeBaseAndQueries("sift", n, nq, /*seed=*/21, &f.base,
                                &f.queries);
  quant::PqOptions popt;
  popt.m = m;
  popt.kmeans_iters = 4;
  if (split) {
    popt.nbits = 8;  // K = 256 via the split tables
    f.pq = quant::TrainSplitPq(f.base, popt);
  } else {
    popt.nbits = 4;
    f.pq = quant::PqQuantizer::Train(f.base, popt);
  }
  ivf::IvfOptions opt;
  opt.nlist = nlist;
  opt.kmeans_iters = 8;
  opt.store_vectors = store_vectors;
  f.index = ivf::IvfIndex::Build(f.base, *f.pq, opt);
  f.gt = ComputeGroundTruth(f.base, f.queries, 10);
  return f;
}

struct ResFixtureResult {
  Dataset base, queries;
  std::vector<float> centroids;
  std::unique_ptr<quant::PqQuantizer> model;
  std::unique_ptr<ivf::IvfIndex> index;
  std::vector<std::vector<Neighbor>> gt;
  ivf::IvfOptions opt;
};

Dataset ResidualsOf(const Dataset& base, const std::vector<float>& centroids) {
  const size_t dim = base.dim();
  const size_t nlist = centroids.size() / dim;
  std::vector<float> resid(base.size() * dim);
  for (size_t i = 0; i < base.size(); ++i) {
    uint32_t c = quant::NearestCentroid(base[i], centroids.data(), nlist, dim);
    const float* cen = centroids.data() + size_t{c} * dim;
    for (size_t d = 0; d < dim; ++d) resid[i * dim + d] = base[i][d] - cen[d];
  }
  return Dataset(base.size(), dim, std::move(resid));
}

std::unique_ptr<quant::PqQuantizer> TrainResidualPq(const Dataset& residuals,
                                                    bool split, size_t m) {
  quant::PqOptions popt;
  popt.m = m;
  popt.kmeans_iters = 4;
  if (split) {
    popt.nbits = 8;  // K = 256 via the split tables
    return quant::TrainSplitPq(residuals, popt);
  }
  popt.nbits = 4;
  return quant::PqQuantizer::Train(residuals, popt);
}

// Residual fixture: coarse centroids first, then a PQ model trained on the
// per-cell residuals x - centroid (the regime's contract — a model trained
// on raw vectors would see codes it was never fit for), then
// BuildWithCentroids so training and routing share one centroid table.
ResFixtureResult MakeResidualFixture(bool split, size_t n = 1333,
                                     size_t nq = 12, size_t nlist = 13,
                                     bool store_vectors = false,
                                     size_t m = 16) {
  ResFixtureResult f;
  synthetic::MakeBaseAndQueries("sift", n, nq, /*seed=*/21, &f.base,
                                &f.queries);
  f.opt.nlist = nlist;
  f.opt.kmeans_iters = 8;
  f.opt.store_vectors = store_vectors;
  f.opt.residual = true;
  f.centroids = ivf::IvfIndex::TrainCoarse(f.base, f.opt);
  f.model = TrainResidualPq(ResidualsOf(f.base, f.centroids), split, m);
  f.index =
      ivf::IvfIndex::BuildWithCentroids(f.base, f.centroids, *f.model, f.opt);
  f.gt = ComputeGroundTruth(f.base, f.queries, 10);
  return f;
}

// Reference implementation mirroring the index's contract with scalar code
// only, in all four {plain, residual} x {4-bit, split} regimes: route by
// (centroid distance, list id), estimate every code of the probed lists with
// FastScanTable::Distance (bit-identical to the blocked kernels) — for split
// codes on the ExpandSplitCode output plus the code's CrossSum, and in the
// residual regime with a table built from q - centroid per probed cell —
// keep the top `rerank` by (estimate, id), re-score with the float-ADC
// stage (decode + centroid add in the residual regime), top-k.
std::vector<Neighbor> ReferenceSearch(const ivf::IvfIndex& ix,
                                      const quant::PqQuantizer& pq,
                                      const Dataset& base, const float* query,
                                      size_t k, size_t nprobe, size_t rerank) {
  const size_t nlist = ix.nlist(), dim = base.dim();
  nprobe = std::min(nprobe, nlist);
  std::vector<float> d2(nlist);
  simd::L2ToMany(query, ix.centroids().data(), nlist, dim, d2.data());
  std::vector<uint32_t> order(nlist);
  for (uint32_t l = 0; l < nlist; ++l) order[l] = l;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return d2[a] < d2[b] || (d2[a] == d2[b] && a < b);
  });
  auto centroid = [&](uint32_t l) {
    return ix.centroids().data() + size_t{l} * dim;
  };

  // Probed rows, identified by re-encoding each base row — its offset from
  // its own cell's centroid in the residual regime — as Build does, so
  // codes agree.
  const size_t m = pq.code_size();
  auto codes = pq.EncodeDataset(ix.residual() ? ResidualsOf(base, ix.centroids())
                                              : base);
  std::vector<uint32_t> assign(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    assign[i] =
        quant::NearestCentroid(base[i], ix.centroids().data(), nlist, dim);
  }
  const quant::SplitPqModel* split = pq.split_model();
  std::vector<uint8_t> expanded(2 * m);
  auto estimate = [&](const quant::FastScanTable& table, const uint8_t* code) {
    if (split == nullptr) return table.Distance(code);
    quant::ExpandSplitCode(code, m, expanded.data());
    return table.Distance(expanded.data()) + split->CrossSum(code);
  };
  struct Est {
    float est;
    uint32_t id;
  };
  std::vector<Est> cands;
  std::vector<float> resq(dim);
  for (size_t p = 0; p < nprobe; ++p) {
    const uint32_t l = order[p];
    const float* q = query;
    if (ix.residual()) {
      for (size_t d = 0; d < dim; ++d) resq[d] = query[d] - centroid(l)[d];
      q = resq.data();
    }
    const quant::FastScanTable table = split != nullptr
                                           ? quant::SplitTable(pq, q)
                                           : quant::FastScanTable(pq, q);
    for (size_t i = 0; i < base.size(); ++i) {
      if (assign[i] != l) continue;
      cands.push_back({estimate(table, codes.data() + i * m),
                       static_cast<uint32_t>(i)});
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Est& a, const Est& b) {
    return a.est < b.est || (a.est == b.est && a.id < b.id);
  });
  if (cands.size() > rerank) cands.resize(rerank);
  quant::AdcTable lut(pq, query);
  std::vector<float> recon(dim);
  TopK top(k);
  for (const Est& c : cands) {
    const uint8_t* code = codes.data() + size_t{c.id} * m;
    if (!ix.residual()) {
      top.Push(lut.Distance(code), c.id);
      continue;
    }
    pq.Decode(code, recon.data());
    for (size_t d = 0; d < dim; ++d) recon[d] += centroid(assign[c.id])[d];
    top.Push(simd::SquaredL2(query, recon.data(), dim), c.id);
  }
  return top.Take();
}

// --------------------------------------------------------- correctness ----

// The acceptance bar: the index's routed, kernel-scanned, reranked result
// equals the scalar hand-rolled reference exactly — candidate estimates are
// bit-identical, so ranking decisions are too (runs under dispatched SIMD,
// RPQ_SIMD=avx2 and RPQ_SIMD=scalar in CI). Every regime runs through the one
// scan body, so each is pinned, for single queries and for a batch whose
// cells are shared across queries. A rerank width of k keeps exactly the
// top-k estimates, so any estimate error near the cut changes the answer;
// the auto width (32) covers the default path.
TEST(IvfIndexTest, SearchMatchesProbedListReferenceExactly) {
  auto check = [](const char* regime, const ivf::IvfIndex& index,
                  const quant::PqQuantizer& pq, const Dataset& base,
                  const Dataset& queries) {
    std::vector<const float*> ptrs;
    for (size_t q = 0; q < queries.size(); ++q) ptrs.push_back(queries[q]);
    for (size_t rerank : {size_t(0), size_t(10)}) {
      for (size_t nprobe : {size_t(1), size_t(3), size_t(7), size_t(13),
                            size_t(50) /* > nlist: clamped */}) {
        ivf::IvfSearchOptions opt;
        opt.nprobe = nprobe;
        opt.rerank = rerank;
        auto batch = index.SearchBatch(ptrs.data(), ptrs.size(), 10, opt);
        for (size_t q = 0; q < queries.size(); ++q) {
          auto got = index.Search(queries[q], 10, opt);
          auto want = ReferenceSearch(index, pq, base, queries[q], 10, nprobe,
                                      rerank == 0 ? 32 : rerank);
          ASSERT_EQ(got.results, want) << regime << " rerank=" << rerank
                                       << " nprobe=" << nprobe << " q=" << q;
          ASSERT_EQ(batch[q].results, want)
              << regime << " batch rerank=" << rerank << " nprobe=" << nprobe
              << " q=" << q;
          EXPECT_EQ(got.stats.lists_probed, std::min(nprobe, index.nlist()));
        }
      }
    }
  };
  for (bool split : {false, true}) {
    Fixture f = MakeFixture(1333, 12, 13, /*store_vectors=*/false, 16, split);
    check(split ? "plain split" : "plain 4-bit", *f.index, *f.pq, f.base,
          f.queries);
    ResFixtureResult r = MakeResidualFixture(split);
    check(split ? "residual split" : "residual 4-bit", *r.index, *r.model,
          r.base, r.queries);
  }
}

TEST(IvfIndexTest, FullProbeRecallMatchesQuantizerBound) {
  Fixture f = MakeFixture();
  // nprobe = nlist scans everything: recall equals what a flat FastScan +
  // float-ADC rerank over the whole corpus achieves (quantizer-bound).
  ivf::IvfSearchOptions opt;
  opt.nprobe = f.index->nlist();
  std::vector<std::vector<Neighbor>> results(f.queries.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    auto out = f.index->Search(f.queries[q], 10, opt);
    EXPECT_EQ(out.stats.codes_scanned, f.base.size());
    EXPECT_TRUE(std::is_sorted(out.results.begin(), out.results.end()));
    results[q] = std::move(out.results);
  }
  double full = eval::MeanRecallAtK(results, f.gt, 10);
  // Narrow probes can only do worse or equal.
  opt.nprobe = 2;
  for (size_t q = 0; q < f.queries.size(); ++q) {
    results[q] = f.index->Search(f.queries[q], 10, opt).results;
  }
  EXPECT_LE(eval::MeanRecallAtK(results, f.gt, 10), full + 1e-9);
  EXPECT_GT(full, 0.2);  // sanity: scanning everything finds something real
}

TEST(IvfIndexTest, ExactRerankLiftsRecallPastFloatAdc) {
  Fixture fadc = MakeFixture(1333, 12, 13, /*store_vectors=*/false);
  Fixture fexact = MakeFixture(1333, 12, 13, /*store_vectors=*/true);
  ivf::IvfSearchOptions opt;
  opt.nprobe = fadc.index->nlist();
  opt.rerank = 64;
  auto recall_of = [&](Fixture& f) {
    std::vector<std::vector<Neighbor>> results(f.queries.size());
    for (size_t q = 0; q < f.queries.size(); ++q) {
      results[q] = f.index->Search(f.queries[q], 10, opt).results;
    }
    return eval::MeanRecallAtK(results, f.gt, 10);
  };
  double adc = recall_of(fadc);
  double exact = recall_of(fexact);
  EXPECT_GE(exact, adc);
  EXPECT_GT(exact, 0.9) << "exact rerank over a full probe should be near 1";

  // The refinement stage is a query-time knob: forcing kAdc on the
  // store_vectors index reproduces the no-vectors index exactly (identical
  // seeds give identical centroids/codes), and kExact equals its kAuto.
  opt.rerank_mode = refine::RerankMode::kAdc;
  for (size_t q = 0; q < fexact.queries.size(); ++q) {
    EXPECT_EQ(fexact.index->Search(fexact.queries[q], 10, opt).results,
              fadc.index->Search(fadc.queries[q], 10, opt).results)
        << "q=" << q;
  }
  opt.rerank_mode = refine::RerankMode::kExact;
  EXPECT_EQ(recall_of(fexact), exact);
}

// A single query keeps its nearest-first probe order, so a deadline cuts
// its farthest cells: however many cells it reached before expiry, every
// result comes from its lists_probed nearest ones. The sweep of budgets
// lands some cuts mid-scan; the property must hold for every cut.
TEST(IvfIndexTest, DeadlineCutsASingleQuerysFarthestCells) {
  Fixture f = MakeFixture(4000, 6, 64);
  const ivf::IvfIndex& ix = *f.index;
  const size_t dim = f.base.dim();
  std::vector<uint32_t> assign(f.base.size());
  for (size_t i = 0; i < f.base.size(); ++i) {
    assign[i] =
        quant::NearestCentroid(f.base[i], ix.centroids().data(), 64, dim);
  }
  for (size_t q = 0; q < f.queries.size(); ++q) {
    std::vector<float> d2(64);
    simd::L2ToMany(f.queries[q], ix.centroids().data(), 64, dim, d2.data());
    std::vector<uint32_t> order(64);
    for (uint32_t l = 0; l < 64; ++l) order[l] = l;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return d2[a] < d2[b] || (d2[a] == d2[b] && a < b);
    });
    for (uint64_t us : {1, 2, 5, 10, 20, 50, 100, 1000000}) {
      ivf::IvfSearchOptions opt;
      opt.nprobe = 64;
      opt.deadline = Deadline::AfterMicros(us);
      const auto r = ix.Search(f.queries[q], 10, opt);
      const size_t probed = r.stats.lists_probed;
      EXPECT_EQ(r.stats.deadline_hit, probed < 64) << "us=" << us;
      for (const Neighbor& n : r.results) {
        EXPECT_NE(std::find(order.begin(), order.begin() + probed,
                            assign[n.id]),
                  order.begin() + probed)
            << "q=" << q << " us=" << us << " probed=" << probed;
      }
    }
  }
}

// The shared auto-rerank rule (refine::EffectiveRerankWidth) governs how
// many candidates survive to the refinement stage: with fewer candidates
// than the width, every scanned code is eligible, so k > width behaves.
TEST(IvfIndexTest, RerankWidthNeverBelowK) {
  Fixture f = MakeFixture(300, 3, 4);
  ivf::IvfSearchOptions opt;
  opt.nprobe = 4;
  opt.rerank = 1;  // clamped up to k by the shared rule
  auto out = f.index->Search(f.queries[0], 20, opt);
  EXPECT_EQ(out.results.size(), 20u);
  EXPECT_TRUE(std::is_sorted(out.results.begin(), out.results.end()));
}

// -------------------------------------------------------- batch parity ----

TEST(IvfIndexTest, SearchBatchMatchesPerQuerySearch) {
  Fixture f = MakeFixture(1500, 16, 9);
  std::vector<const float*> ptrs;
  for (size_t q = 0; q < f.queries.size(); ++q) ptrs.push_back(f.queries[q]);
  for (size_t nprobe : {size_t(1), size_t(4), size_t(9)}) {
    ivf::IvfSearchOptions opt;
    opt.nprobe = nprobe;
    auto batch = f.index->SearchBatch(ptrs.data(), ptrs.size(), 10, opt);
    ASSERT_EQ(batch.size(), f.queries.size());
    for (size_t q = 0; q < f.queries.size(); ++q) {
      auto single = f.index->Search(f.queries[q], 10, opt);
      EXPECT_EQ(batch[q].results, single.results)
          << "nprobe=" << nprobe << " q=" << q;
      EXPECT_EQ(batch[q].stats.lists_probed, single.stats.lists_probed);
      EXPECT_EQ(batch[q].stats.codes_scanned, single.stats.codes_scanned);
    }
  }
}

// Duplicate queries maximize list sharing (every probed list is scanned for
// the whole batch through the multi-query kernel at once).
TEST(IvfIndexTest, SearchBatchWithSharedListsMatchesSearch) {
  Fixture f = MakeFixture(900, 4, 5);
  std::vector<const float*> ptrs;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t q = 0; q < f.queries.size(); ++q) ptrs.push_back(f.queries[q]);
  }
  ivf::IvfSearchOptions opt;
  opt.nprobe = 3;
  auto batch = f.index->SearchBatch(ptrs.data(), ptrs.size(), 10, opt);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    auto single = f.index->Search(ptrs[i], 10, opt);
    EXPECT_EQ(batch[i].results, single.results) << "i=" << i;
  }
}

// ----------------------------------------------------------- edge cases ----

TEST(IvfIndexTest, EmptyListsAndSmallCorpus) {
  // 8 centroids, 3 inserted vectors: most lists stay empty; searches must
  // tolerate empty probes, k > corpus, and nprobe > nlist.
  Dataset tiny = synthetic::MakeSiftLike(64, 3);
  quant::PqOptions popt;
  popt.m = 8;
  popt.nbits = 4;
  popt.kmeans_iters = 2;
  auto pq = quant::PqQuantizer::Train(tiny, popt);

  quant::KMeansOptions kopt;
  kopt.k = 8;
  auto km = quant::RunKMeans(tiny.data(), tiny.size(), tiny.dim(), kopt);
  auto index = ivf::IvfIndex::CreateEmpty(km.centroids, tiny.dim(), *pq);

  // Entirely empty index: no results, no crash.
  ivf::IvfSearchOptions opt;
  opt.nprobe = 100;  // > nlist, clamped
  auto empty = index->Search(tiny[0], 10, opt);
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.stats.lists_probed, 8u);
  EXPECT_EQ(empty.stats.codes_scanned, 0u);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(index->Insert(tiny[i]), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(index->size(), 3u);
  auto out = index->Search(tiny[0], 10, opt);  // k > corpus
  ASSERT_EQ(out.results.size(), 3u);
  EXPECT_TRUE(std::is_sorted(out.results.begin(), out.results.end()));
  EXPECT_EQ(out.results[0].id, 0u);  // the query is an indexed vector

  // Batch over the same edge state.
  const float* qs[2] = {tiny[0], tiny[1]};
  auto batch = index->SearchBatch(qs, 2, 10, opt);
  EXPECT_EQ(batch[0].results, out.results);
}

TEST(IvfIndexTest, InsertsMatchBuildLayout) {
  // An empty clone of a built index (same centroids) filled through Insert
  // must search identically: appends hit the packed tail-block path at every
  // length mod 32.
  Fixture f = MakeFixture(777, 6, 6);
  auto streamed = ivf::IvfIndex::CreateEmpty(f.index->centroids(),
                                             f.base.dim(), *f.pq);
  for (size_t i = 0; i < f.base.size(); ++i) {
    EXPECT_EQ(streamed->Insert(f.base[i]), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(streamed->size(), f.index->size());
  ivf::IvfSearchOptions opt;
  opt.nprobe = 4;
  for (size_t q = 0; q < f.queries.size(); ++q) {
    EXPECT_EQ(streamed->Search(f.queries[q], 10, opt).results,
              f.index->Search(f.queries[q], 10, opt).results)
        << "q=" << q;
  }
}

// ------------------------------------------------ residual + split regimes ----

// The reason the regime exists: at equal nprobe, residual codes (and the
// K = 256 split tables on top of them) must recover strictly more of the
// true neighbors than raw-vector 4-bit codes.
TEST(IvfResidualTest, ResidualLiftsRecallOverPlainAtEqualNprobe) {
  Fixture plain = MakeFixture(1333, 12, 13);
  ResFixtureResult res4 = MakeResidualFixture(/*split=*/false);
  ResFixtureResult res8 = MakeResidualFixture(/*split=*/true);
  auto recall_at = [](auto& f, size_t nprobe) {
    ivf::IvfSearchOptions opt;
    opt.nprobe = nprobe;
    std::vector<std::vector<Neighbor>> results(f.queries.size());
    for (size_t q = 0; q < f.queries.size(); ++q) {
      results[q] = f.index->Search(f.queries[q], 10, opt).results;
    }
    return eval::MeanRecallAtK(results, f.gt, 10);
  };
  for (size_t nprobe : {size_t(4), size_t(13)}) {
    double p = recall_at(plain, nprobe);
    double r4 = recall_at(res4, nprobe);
    double r8 = recall_at(res8, nprobe);
    EXPECT_GE(r4, p) << "nprobe=" << nprobe;
    EXPECT_GE(r8, r4) << "nprobe=" << nprobe;
  }
  EXPECT_GT(recall_at(res8, 13), recall_at(plain, 13));
}

// Residual reconstruction x_hat = centroid + Decode(Encode(x - centroid))
// must beat the plain quantizer trained on raw vectors at the same code
// budget — and || x - x_hat ||^2 equals the residual-space decode error
// exactly (the centroid add cancels), which the loop also pins.
TEST(IvfResidualTest, EncodeDecodeCentroidAddTightensReconstruction) {
  ResFixtureResult f = MakeResidualFixture(/*split=*/false, 800, 4, 7);
  quant::PqOptions popt;
  popt.m = 16;
  popt.nbits = 4;
  popt.kmeans_iters = 4;
  auto raw_pq = quant::PqQuantizer::Train(f.base, popt);

  const size_t dim = f.base.dim();
  const size_t nlist = f.centroids.size() / dim;
  std::vector<uint8_t> code(f.model->code_size());
  std::vector<float> r(dim), rec_r(dim), x_hat(dim);
  double res_err = 0;
  for (size_t i = 0; i < f.base.size(); ++i) {
    uint32_t c =
        quant::NearestCentroid(f.base[i], f.centroids.data(), nlist, dim);
    const float* cen = f.centroids.data() + size_t{c} * dim;
    for (size_t d = 0; d < dim; ++d) r[d] = f.base[i][d] - cen[d];
    f.model->Encode(r.data(), code.data());
    f.model->Decode(code.data(), rec_r.data());
    for (size_t d = 0; d < dim; ++d) x_hat[d] = cen[d] + rec_r[d];
    float full = SquaredL2(f.base[i], x_hat.data(), dim);
    float in_residual_space = SquaredL2(r.data(), rec_r.data(), dim);
    ASSERT_NEAR(full, in_residual_space, 1e-2f * (1 + full)) << "i=" << i;
    res_err += full;
  }
  res_err /= f.base.size();
  EXPECT_LT(res_err, raw_pq->Distortion(f.base));
}

// Batch grouping in the residual regime builds one (cell, query) table per
// pair and scans each cell's blocks once for the whole group — results must
// equal per-query Search exactly, in both the 4-bit and split regimes, with
// repeated queries maximizing the shared-cell path.
TEST(IvfResidualTest, SearchBatchMatchesPerQuerySearch) {
  for (bool split : {false, true}) {
    ResFixtureResult f = MakeResidualFixture(split, 900, 6, 7);
    std::vector<const float*> ptrs;
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t q = 0; q < f.queries.size(); ++q) {
        ptrs.push_back(f.queries[q]);
      }
    }
    for (size_t nprobe : {size_t(1), size_t(3), size_t(7)}) {
      ivf::IvfSearchOptions opt;
      opt.nprobe = nprobe;
      auto batch = f.index->SearchBatch(ptrs.data(), ptrs.size(), 10, opt);
      ASSERT_EQ(batch.size(), ptrs.size());
      for (size_t i = 0; i < ptrs.size(); ++i) {
        auto single = f.index->Search(ptrs[i], 10, opt);
        ASSERT_EQ(batch[i].results, single.results)
            << "split=" << split << " nprobe=" << nprobe << " i=" << i;
        EXPECT_EQ(batch[i].stats.codes_scanned, single.stats.codes_scanned);
      }
    }
  }
}

// Empty probed cells must be skipped before any per-cell table is built —
// the residual path constructs tables lazily per probe, so an empty cell
// must cost nothing and crash nothing.
TEST(IvfResidualTest, EmptyCellProbesAreSkipped) {
  Dataset tiny = synthetic::MakeSiftLike(64, 3);
  quant::KMeansOptions kopt;
  kopt.k = 8;
  auto km = quant::RunKMeans(tiny.data(), tiny.size(), tiny.dim(), kopt);
  for (bool split : {false, true}) {
    auto model = TrainResidualPq(ResidualsOf(tiny, km.centroids), split, 8);
    ivf::IvfOptions opt;
    opt.residual = true;
    auto index =
        ivf::IvfIndex::CreateEmpty(km.centroids, tiny.dim(), *model, opt);
    ivf::IvfSearchOptions sopt;
    sopt.nprobe = 100;  // > nlist, clamped; every probe hits an empty cell
    auto empty = index->Search(tiny[0], 10, sopt);
    EXPECT_TRUE(empty.results.empty()) << "split=" << split;
    EXPECT_EQ(empty.stats.lists_probed, 8u);
    EXPECT_EQ(empty.stats.codes_scanned, 0u);

    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(index->Insert(tiny[i]), static_cast<uint32_t>(i));
    }
    auto out = index->Search(tiny[0], 10, sopt);  // k > corpus, most cells empty
    ASSERT_EQ(out.results.size(), 3u);
    EXPECT_TRUE(std::is_sorted(out.results.begin(), out.results.end()));
    EXPECT_EQ(out.results[0].id, 0u);

    const float* qs[2] = {tiny[0], tiny[1]};
    auto batch = index->SearchBatch(qs, 2, 10, sopt);
    EXPECT_EQ(batch[0].results, out.results) << "split=" << split;
  }
}

// Streaming inserts route first, then encode against the owning centroid —
// the same order Build uses, so a streamed index must search identically.
TEST(IvfResidualTest, InsertsMatchBuildLayout) {
  for (bool split : {false, true}) {
    ResFixtureResult f = MakeResidualFixture(split, 777, 6, 6);
    auto streamed = ivf::IvfIndex::CreateEmpty(f.centroids, f.base.dim(),
                                               *f.model, f.opt);
    for (size_t i = 0; i < f.base.size(); ++i) {
      EXPECT_EQ(streamed->Insert(f.base[i]), static_cast<uint32_t>(i));
    }
    ivf::IvfSearchOptions opt;
    opt.nprobe = 4;
    for (size_t q = 0; q < f.queries.size(); ++q) {
      EXPECT_EQ(streamed->Search(f.queries[q], 10, opt).results,
                f.index->Search(f.queries[q], 10, opt).results)
          << "split=" << split << " q=" << q;
    }
  }
}

// The residual regime degrades gracefully through the shared rerank modes:
// kAdc re-scores with decode + centroid add (no stored vectors needed),
// kExact with the retained vectors, and kAuto picks between them.
TEST(IvfResidualTest, RerankModesDegradeGracefully) {
  ResFixtureResult plain = MakeResidualFixture(/*split=*/true, 900, 6, 7,
                                               /*store_vectors=*/false);
  ResFixtureResult stored = MakeResidualFixture(/*split=*/true, 900, 6, 7,
                                                /*store_vectors=*/true);
  ivf::IvfSearchOptions opt;
  opt.nprobe = 7;
  opt.rerank = 64;
  // Same seeds → same centroids/codes: forcing kAdc on the stored index
  // reproduces the no-vectors index exactly.
  opt.rerank_mode = refine::RerankMode::kAdc;
  for (size_t q = 0; q < plain.queries.size(); ++q) {
    EXPECT_EQ(stored.index->Search(stored.queries[q], 10, opt).results,
              plain.index->Search(plain.queries[q], 10, opt).results)
        << "q=" << q;
  }
  auto recall_of = [&](ResFixtureResult& f) {
    std::vector<std::vector<Neighbor>> results(f.queries.size());
    for (size_t q = 0; q < f.queries.size(); ++q) {
      results[q] = f.index->Search(f.queries[q], 10, opt).results;
    }
    return eval::MeanRecallAtK(results, f.gt, 10);
  };
  double adc = recall_of(plain);
  opt.rerank_mode = refine::RerankMode::kExact;
  double exact = recall_of(stored);
  EXPECT_GE(exact, adc);
  opt.rerank_mode = refine::RerankMode::kAuto;
  EXPECT_EQ(recall_of(stored), exact);
}

// Non-residual split regime: K = 256 tables over raw vectors must reach at
// least the 4-bit recall at full probe (more words, sharper estimates), and
// batch must equal single.
TEST(IvfSplitTest, SplitTablesLiftQuantizerBoundRecall) {
  // Enough queries that the recall comparison is not decided by a couple of
  // borderline neighbors (at 8 queries the two regimes sit within 3 hits).
  Fixture four = MakeFixture(900, 48, 7);
  quant::PqOptions popt;
  popt.m = 16;
  popt.nbits = 8;
  popt.kmeans_iters = 4;
  auto split_pq = quant::TrainSplitPq(four.base, popt);
  ivf::IvfOptions opt;
  opt.nlist = 7;
  opt.kmeans_iters = 8;
  auto split_index = ivf::IvfIndex::Build(four.base, *split_pq, opt);

  ivf::IvfSearchOptions sopt;
  sopt.nprobe = 7;
  // Wide enough that the float-ADC rerank, not u8 candidate selection,
  // decides the top-10 — the comparison isolates codebook capacity.
  sopt.rerank = 128;
  std::vector<std::vector<Neighbor>> r4(four.queries.size()),
      r8(four.queries.size());
  std::vector<const float*> ptrs;
  for (size_t q = 0; q < four.queries.size(); ++q) {
    r4[q] = four.index->Search(four.queries[q], 10, sopt).results;
    r8[q] = split_index->Search(four.queries[q], 10, sopt).results;
    ptrs.push_back(four.queries[q]);
  }
  EXPECT_GE(eval::MeanRecallAtK(r8, four.gt, 10),
            eval::MeanRecallAtK(r4, four.gt, 10) - 0.02);

  auto batch = split_index->SearchBatch(ptrs.data(), ptrs.size(), 10, sopt);
  for (size_t q = 0; q < ptrs.size(); ++q) {
    EXPECT_EQ(batch[q].results, r8[q]) << "q=" << q;
  }
}

// ---------------------------------------------------------- persistence ----

TEST(IvfIndexTest, SaveLoadRoundTrips) {
  for (bool store_vectors : {false, true}) {
    Fixture f = MakeFixture(600, 5, 7, store_vectors);
    std::string path = testing::TempDir() + "/ivf_roundtrip.bin";
    ASSERT_TRUE(f.index->Save(path).ok());
    auto loaded = ivf::IvfIndex::Load(path, *f.pq);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->nlist(), f.index->nlist());
    EXPECT_EQ(loaded.value()->size(), f.index->size());
    EXPECT_EQ(loaded.value()->stores_vectors(), store_vectors);
    ivf::IvfSearchOptions opt;
    opt.nprobe = 5;
    for (size_t q = 0; q < f.queries.size(); ++q) {
      EXPECT_EQ(loaded.value()->Search(f.queries[q], 10, opt).results,
                f.index->Search(f.queries[q], 10, opt).results);
    }
    std::remove(path.c_str());
  }
}

// Version-2 files carry the residual flag; a reloaded index must report
// residual(), rebuild the packed blocks and split cross constants from the
// stored codes, and search identically — in all four regime combinations.
TEST(IvfIndexTest, SaveLoadRoundTripsResidualAndSplit) {
  for (bool split : {false, true}) {
    ResFixtureResult f = MakeResidualFixture(split, 600, 5, 7);
    std::string path = testing::TempDir() + "/ivf_residual_roundtrip.bin";
    ASSERT_TRUE(f.index->Save(path).ok());
    auto loaded = ivf::IvfIndex::Load(path, *f.model);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded.value()->residual());
    EXPECT_EQ(loaded.value()->size(), f.index->size());
    ivf::IvfSearchOptions opt;
    opt.nprobe = 5;
    for (size_t q = 0; q < f.queries.size(); ++q) {
      EXPECT_EQ(loaded.value()->Search(f.queries[q], 10, opt).results,
                f.index->Search(f.queries[q], 10, opt).results)
          << "split=" << split << " q=" << q;
    }
    std::remove(path.c_str());
  }
}

// A split-trained quantizer paired with a non-split file (or vice versa)
// cannot silently load: the capability check fires on K/code-size mismatch.
TEST(IvfIndexTest, LoadRejectsWideQuantizerWithoutSplitModel) {
  Fixture f = MakeFixture(400, 3, 4);
  std::string path = testing::TempDir() + "/ivf_wide.bin";
  ASSERT_TRUE(f.index->Save(path).ok());
  quant::PqOptions popt;
  popt.m = 16;  // same code size as the fixture, but K = 256 and NOT split
  popt.k = 256;
  popt.nbits = 8;
  popt.kmeans_iters = 2;
  auto wide = quant::PqQuantizer::Train(f.base, popt);
  ASSERT_EQ(wide->split_model(), nullptr);
  EXPECT_FALSE(ivf::IvfIndex::Load(path, *wide).ok());
  std::remove(path.c_str());
}

// The capability rule caps u8 table rows at 256, so a split model past
// m = 128 (2m rows) cannot serve a matching file: Load must refuse it rather
// than abort while repacking the lists at 2m rows.
TEST(IvfIndexTest, LoadRejectsSplitModelPastRowCap) {
  synthetic::GmmOptions gopt;
  gopt.dim = 160;
  gopt.num_clusters = 4;
  gopt.intrinsic_dim = 8;
  Dataset base = synthetic::MakeGmm(200, gopt, 5);
  quant::PqOptions popt;
  popt.m = 160;  // 4-bit: 160 rows, within the cap
  popt.nbits = 4;
  popt.kmeans_iters = 2;
  auto four = quant::PqQuantizer::Train(base, popt);
  ivf::IvfOptions opt;
  opt.nlist = 4;
  auto index = ivf::IvfIndex::Build(base, *four, opt);
  std::string path = testing::TempDir() + "/ivf_m160.bin";
  ASSERT_TRUE(index->Save(path).ok());
  // Same dim and code size, but split: 320 rows.
  auto split = quant::MakeSplitQuantizer(quant::Codebook(160, 16, 1),
                                         quant::Codebook(160, 16, 1));
  EXPECT_FALSE(quant::FastScanCapable(*split));
  EXPECT_FALSE(ivf::IvfIndex::Load(path, *split).ok());
  EXPECT_TRUE(ivf::IvfIndex::Load(path, *four).ok());
  std::remove(path.c_str());
}

// A corrupt per-list count must come back as a Status error, not abort the
// process inside vector::resize (counts are bounded by the header total and
// the header total by the file size, before any allocation trusts them).
TEST(IvfIndexTest, LoadRejectsCorruptListCounts) {
  Fixture f = MakeFixture(400, 3, 4);
  std::string path = testing::TempDir() + "/ivf_corrupt.bin";
  ASSERT_TRUE(f.index->Save(path).ok());
  // The first list-count u64 sits right after the fixed header + centroids.
  const long count_off =
      4 + 4 + 4 + 4 + 4 + 1 + 1 + 4 + 8 +
      static_cast<long>(f.index->nlist() * f.base.dim() * sizeof(float));
  for (uint64_t bad :
       {uint64_t{0x7fffffffffffffff}, uint64_t{f.base.size() + 1}}) {
    std::FILE* fp = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fseek(fp, count_off, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&bad, sizeof(bad), 1, fp), 1u);
    std::fclose(fp);
    auto loaded = ivf::IvfIndex::Load(path, *f.pq);
    EXPECT_FALSE(loaded.ok()) << "count=" << bad;
  }
  // Garbage header total (bounded by file size, checked before centroids).
  std::FILE* fp = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(fp, nullptr);
  const uint64_t bad_total = uint64_t{1} << 60;
  ASSERT_EQ(std::fseek(fp, 4 + 4 + 4 + 4 + 4 + 1 + 1 + 4, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&bad_total, sizeof(bad_total), 1, fp), 1u);
  std::fclose(fp);
  EXPECT_FALSE(ivf::IvfIndex::Load(path, *f.pq).ok());
  std::remove(path.c_str());
}

TEST(IvfIndexTest, LoadRejectsMismatchedQuantizer) {
  Fixture f = MakeFixture(400, 3, 4);
  std::string path = testing::TempDir() + "/ivf_mismatch.bin";
  ASSERT_TRUE(f.index->Save(path).ok());
  quant::PqOptions popt;
  popt.m = 8;  // different code size
  popt.nbits = 4;
  popt.kmeans_iters = 2;
  auto other = quant::PqQuantizer::Train(f.base, popt);
  EXPECT_FALSE(ivf::IvfIndex::Load(path, *other).ok());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- concurrency ----

// Readers and a writer interleave under the index's rwlock; run under the
// CI ThreadSanitizer job. Results of concurrent reads are not asserted
// against a serial oracle (the corpus is mutating) — only invariants.
TEST(IvfConcurrencyTest, ConcurrentSearchAndInsert) {
  Dataset base = synthetic::MakeSiftLike(600, 11);
  quant::PqOptions popt;
  popt.m = 8;
  popt.nbits = 4;
  popt.kmeans_iters = 2;
  auto pq = quant::PqQuantizer::Train(base, popt);
  quant::KMeansOptions kopt;
  kopt.k = 8;
  auto km = quant::RunKMeans(base.data(), 200, base.dim(), kopt);
  auto index = ivf::IvfIndex::CreateEmpty(km.centroids, base.dim(), *pq);
  for (size_t i = 0; i < 100; ++i) index->Insert(base[i]);

  std::atomic<bool> stop{false};
  std::atomic<size_t> searches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      ivf::IvfSearchOptions opt;
      opt.nprobe = 4;
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto out = index->Search(base[q % 100], 5, opt);
        ASSERT_TRUE(std::is_sorted(out.results.begin(), out.results.end()));
        ASSERT_LE(out.results.size(), 5u);
        ++q;
        ++searches;
      }
    });
  }
  for (size_t i = 100; i < base.size(); ++i) index->Insert(base[i]);
  // On few-core boxes the writer can finish before any reader completes a
  // search; let the readers get at least a few in before stopping.
  while (searches.load() < 3) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(index->size(), base.size());
  EXPECT_GT(searches.load(), 0u);
  // Post-quiescence: every vector is findable again.
  ivf::IvfSearchOptions opt;
  opt.nprobe = 8;
  auto out = index->Search(base[base.size() - 1], 1, opt);
  ASSERT_EQ(out.results.size(), 1u);
}

// Residual + split variant of the reader/writer interleave: the per-probe
// table builds and the per-list cross appends run under the same rwlock and
// must stay clean under TSan.
TEST(IvfConcurrencyTest, ConcurrentSearchAndInsertResidualSplit) {
  Dataset base = synthetic::MakeSiftLike(600, 11);
  quant::KMeansOptions kopt;
  kopt.k = 8;
  auto km = quant::RunKMeans(base.data(), 200, base.dim(), kopt);
  auto model = TrainResidualPq(ResidualsOf(base, km.centroids), /*split=*/true,
                               /*m=*/8);
  ivf::IvfOptions opt;
  opt.residual = true;
  auto index = ivf::IvfIndex::CreateEmpty(km.centroids, base.dim(), *model, opt);
  for (size_t i = 0; i < 100; ++i) index->Insert(base[i]);

  std::atomic<bool> stop{false};
  std::atomic<size_t> searches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      ivf::IvfSearchOptions sopt;
      sopt.nprobe = 4;
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto out = index->Search(base[q % 100], 5, sopt);
        ASSERT_TRUE(std::is_sorted(out.results.begin(), out.results.end()));
        ASSERT_LE(out.results.size(), 5u);
        ++q;
        ++searches;
      }
    });
  }
  for (size_t i = 100; i < base.size(); ++i) index->Insert(base[i]);
  while (searches.load() < 3) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(index->size(), base.size());
  // Post-quiescence: the last insert is findable through the residual path.
  ivf::IvfSearchOptions sopt;
  sopt.nprobe = 8;
  auto out = index->Search(base[base.size() - 1], 1, sopt);
  ASSERT_EQ(out.results.size(), 1u);
}

}  // namespace
}  // namespace rpq
