#include <gtest/gtest.h>

#include <cmath>

#include "common/distance.h"
#include "common/topk.h"
#include "core/memory_index.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/vamana.h"
#include "quant/adc.h"
#include "quant/catalyst.h"
#include "quant/linkcode.h"
#include "refine/refine.h"

namespace rpq::quant {
namespace {

Dataset SmallData(size_t n = 400, uint64_t seed = 7) {
  synthetic::GmmOptions opt;
  opt.dim = 32;
  opt.num_clusters = 6;
  opt.intrinsic_dim = 6;
  opt.anisotropy = 1.5f;
  return synthetic::MakeGmm(n, opt, seed);
}

CatalystOptions SmallCatalyst() {
  CatalystOptions opt;
  opt.d_out = 16;
  opt.hidden = 32;
  opt.epochs = 2;
  opt.batch_size = 16;
  opt.pq.m = 4;
  opt.pq.k = 16;
  return opt;
}

TEST(CatalystTest, TransformIsUnitNorm) {
  Dataset d = SmallData();
  auto cat = CatalystQuantizer::Train(d, SmallCatalyst());
  std::vector<float> out(cat->decoded_dim());
  for (size_t i = 0; i < 20; ++i) {
    cat->Transform(d[i], out.data());
    EXPECT_NEAR(SquaredNorm(out.data(), out.size()), 1.0f, 1e-3f);
  }
}

TEST(CatalystTest, DimsAndModelSize) {
  Dataset d = SmallData();
  auto opt = SmallCatalyst();
  auto cat = CatalystQuantizer::Train(d, opt);
  EXPECT_EQ(cat->dim(), d.dim());
  EXPECT_EQ(cat->decoded_dim(), opt.d_out);
  EXPECT_EQ(cat->num_chunks(), opt.pq.m);
  EXPECT_GT(cat->ModelSizeBytes(), 0u);
  EXPECT_GT(cat->training_seconds(), 0.0);
}

TEST(CatalystTest, AdcConsistentWithTransformedDistance) {
  Dataset d = SmallData();
  auto cat = CatalystQuantizer::Train(d, SmallCatalyst());
  std::vector<uint8_t> code(cat->code_size());
  std::vector<float> rec(cat->decoded_dim());
  AdcTable table(*cat, d[0]);
  for (size_t i = 50; i < 60; ++i) {
    cat->Encode(d[i], code.data());
    cat->Decode(code.data(), rec.data());
    std::vector<float> tq(cat->decoded_dim());
    cat->Transform(d[0], tq.data());
    float direct = SquaredL2(tq.data(), rec.data(), rec.size());
    EXPECT_NEAR(table.Distance(code.data()), direct, 1e-3f * (1 + direct));
  }
}

TEST(CatalystTest, PreservesNeighborRankingBetterThanRandom) {
  // The learned map should keep near neighbors nearer than far points.
  Dataset d = SmallData(500, 9);
  auto cat = CatalystQuantizer::Train(d, SmallCatalyst());
  std::vector<float> t0(cat->decoded_dim()), tn(cat->decoded_dim()),
      tf(cat->decoded_dim());
  size_t correct = 0, total = 0;
  for (size_t i = 0; i < 40; ++i) {
    // nearest of a 20-point sample vs a far point.
    size_t near_id = 0;
    float best = std::numeric_limits<float>::max();
    for (size_t j = 100; j < 120; ++j) {
      float dd = SquaredL2(d[i], d[j], d.dim());
      if (dd < best) {
        best = dd;
        near_id = j;
      }
    }
    size_t far_id = 0;
    float worst = 0;
    for (size_t j = 100; j < 120; ++j) {
      float dd = SquaredL2(d[i], d[j], d.dim());
      if (dd > worst) {
        worst = dd;
        far_id = j;
      }
    }
    cat->Transform(d[i], t0.data());
    cat->Transform(d[near_id], tn.data());
    cat->Transform(d[far_id], tf.data());
    if (SquaredL2(t0.data(), tn.data(), t0.size()) <
        SquaredL2(t0.data(), tf.data(), t0.size())) {
      ++correct;
    }
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.6);
}

TEST(LinkCodeTest, RefinementReducesReconstructionError) {
  Dataset d = SmallData(500, 11);
  graph::VamanaOptions vopt;
  vopt.degree = 12;
  vopt.build_beam = 24;
  auto g = graph::BuildVamana(d, vopt);
  LinkCodeOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 16;
  opt.num_links = 6;
  auto lc = LinkCodeIndex::Build(d, g, opt);

  std::vector<uint8_t> code(lc->pq().code_size());
  std::vector<float> plain(d.dim()), refined(d.dim());
  double err_plain = 0, err_refined = 0;
  for (uint32_t v = 0; v < 200; ++v) {
    lc->pq().Encode(d[v], code.data());
    lc->pq().Decode(code.data(), plain.data());
    lc->RefinedDecode(v, refined.data());
    err_plain += SquaredL2(d[v], plain.data(), d.dim());
    err_refined += SquaredL2(d[v], refined.data(), d.dim());
  }
  // The least-squares fit guarantees improvement in expectation.
  EXPECT_LT(err_refined, err_plain * 1.001);
}

// LinkCode as a live refinement stage: on the clustered synthetic fixture,
// reranking the beam's candidates with the neighbor-regression
// reconstructions lands between the float-ADC stage (same codes, no
// correction) and the exact stage (raw rows) — the fidelity/memory slot
// Link&Code exists to fill — whether the beam navigated on FastScan's u8
// tables or on float ADC. The bounds get a small slack because the three
// stages re-rank the same candidates with differently-biased estimators.
TEST(LinkCodeTest, RefinedRerankRecallBetweenAdcAndExact) {
  Dataset base = SmallData(2000, 7);
  Dataset queries = SmallData(64, 99);
  auto gt = ComputeGroundTruth(base, queries, 10);

  graph::VamanaOptions vopt;
  vopt.degree = 16;
  vopt.build_beam = 32;
  auto g = graph::BuildVamana(base, vopt);

  PqOptions popt;
  popt.m = 4;  // coarse codes: room for the refinement to matter
  popt.nbits = 4;
  auto pq = PqQuantizer::Train(base, popt);

  LinkCodeOptions lopt;
  lopt.pq = popt;  // same codebook shape as the navigation quantizer
  lopt.num_links = 8;
  auto lc = LinkCodeIndex::Build(base, g, lopt);

  core::MemoryIndexOptions mopt;
  mopt.store_vectors = true;
  auto index = core::MemoryIndex::Build(base, g, *pq, mopt);
  index->set_linkcode(lc.get());

  for (core::DistanceMode nav :
       {core::DistanceMode::kFastScan, core::DistanceMode::kAdc}) {
    auto recall = [&](refine::RerankMode mode) {
      std::vector<std::vector<Neighbor>> results(queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        results[q] =
            index->Search(queries[q], 10, {64, 10, {}}, nav, {0, mode})
                .results;
      }
      return eval::MeanRecallAtK(results, gt, 10);
    };
    const char* name = nav == core::DistanceMode::kAdc ? "adc" : "fastscan";
    double adc = recall(refine::RerankMode::kAdc);
    double linkcode = recall(refine::RerankMode::kLinkCode);
    double exact = recall(refine::RerankMode::kExact);
    EXPECT_GE(linkcode, adc - 0.01)
        << name << ": linkcode rerank must not lose to ADC: adc=" << adc
        << " linkcode=" << linkcode;
    EXPECT_GE(exact, linkcode - 0.01)
        << name << ": exact rerank must not lose to linkcode: linkcode="
        << linkcode << " exact=" << exact;
    EXPECT_GT(exact, adc)
        << name << ": fixture must separate the stages to be meaningful";
  }
}

// Link&Code over float-ADC navigation is the memory index's refinement
// epilogue with the Link&Code stage. With a rerank width past the beam,
// every beam survivor is re-scored: at beams >= 4k the answer equals a TopK
// over RefinedDistance of a kAuto search that returns the whole beam, bit
// for bit. The rerank never widens the traversal: at every beam, hops equal
// a kAuto search's at that beam.
TEST(LinkCodeTest, AdcLinkCodeRerankIsTopKOfRefinedBeam) {
  Dataset base = SmallData(1500, 5);
  Dataset queries = SmallData(24, 77);
  graph::VamanaOptions vopt;
  vopt.degree = 16;
  vopt.build_beam = 32;
  auto g = graph::BuildVamana(base, vopt);

  LinkCodeOptions lopt;
  lopt.pq.m = 8;
  lopt.pq.k = 64;
  lopt.num_links = 8;
  auto lc = LinkCodeIndex::Build(base, g, lopt);
  auto index = core::MemoryIndex::Build(base, g, lc->pq());
  index->set_linkcode(lc.get());

  const size_t k = 10;
  const refine::RerankSpec linkcode{192, refine::RerankMode::kLinkCode};
  for (size_t beam : {10, 16, 32, 40, 64, 128}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      auto got = index->Search(queries[q], k, {beam, k, {}},
                               core::DistanceMode::kAdc, linkcode);
      auto plain = index->Search(queries[q], k, {beam, k, {}});
      EXPECT_EQ(got.stats.hops, plain.stats.hops) << "beam " << beam;
      if (beam < 4 * k) continue;
      auto whole = index->Search(queries[q], beam, {beam, beam, {}});
      TopK want(k);
      for (const Neighbor& c : whole.results) {
        want.Push(lc->RefinedDistance(queries[q], c.id), c.id);
      }
      EXPECT_EQ(got.results, want.Take()) << "beam " << beam << " q " << q;
    }
  }
}

TEST(LinkCodeTest, BetaIsFiniteAndBounded) {
  Dataset d = SmallData(300, 13);
  graph::VamanaOptions vopt;
  vopt.degree = 8;
  vopt.build_beam = 16;
  auto g = graph::BuildVamana(d, vopt);
  LinkCodeOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 16;
  opt.num_links = 4;
  auto lc = LinkCodeIndex::Build(d, g, opt);
  ASSERT_EQ(lc->beta().size(), 4u);
  for (float b : lc->beta()) {
    EXPECT_TRUE(std::isfinite(b));
    EXPECT_LT(std::fabs(b), 10.0f);
  }
}

}  // namespace
}  // namespace rpq::quant
