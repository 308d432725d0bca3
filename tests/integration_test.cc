// End-to-end integration tests: the full offline pipeline (generate → graph
// → train → serialize → reload → search) across quantizer types and both
// deployment scenarios, plus SDC-vs-ADC semantics.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/distance.h"
#include "core/rpq.h"
#include "data/ground_truth.h"
#include "data/io_vecs.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "eval/recall.h"
#include "graph/beam_search.h"
#include "graph/hnsw.h"
#include "graph/vamana.h"
#include "quant/adc.h"
#include "quant/catalyst.h"
#include "quant/opq.h"
#include "quant/serialize.h"

namespace rpq {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synthetic::MakeBaseAndQueries("sift", 1200, 20, 91, &base_, &queries_);
    graph::VamanaOptions vopt;
    vopt.degree = 16;
    vopt.build_beam = 32;
    graph_ = graph::BuildVamana(base_, vopt);
    gt_ = ComputeGroundTruth(base_, queries_, 10);
  }
  Dataset base_, queries_;
  graph::ProximityGraph graph_;
  std::vector<std::vector<Neighbor>> gt_;
};

TEST_F(PipelineTest, FullOfflinePipelineThroughFiles) {
  std::string dir = ::testing::TempDir();
  // Stage 1: persist dataset + graph.
  ASSERT_TRUE(io::WriteFvecs(dir + "/base.fvecs", base_).ok());
  ASSERT_TRUE(graph_.Save(dir + "/graph.bin").ok());

  // Stage 2: reload, train RPQ, persist the model.
  auto base2 = io::ReadFvecs(dir + "/base.fvecs");
  ASSERT_TRUE(base2.ok());
  auto graph2 = graph::ProximityGraph::Load(dir + "/graph.bin");
  ASSERT_TRUE(graph2.ok());
  core::RpqTrainOptions topt;
  topt.m = 8;
  topt.k = 32;
  topt.epochs = 1;
  topt.triplets_per_epoch = 128;
  topt.routing_queries_per_epoch = 8;
  auto trained = core::TrainRpq(base2.value(), graph2.value(), topt);
  ASSERT_TRUE(quant::SaveQuantizer(*trained.quantizer,
                                   dir + "/model.rpqq").ok());

  // Stage 3: a "searcher" process loads everything and serves queries.
  auto model = quant::LoadQuantizer(dir + "/model.rpqq");
  ASSERT_TRUE(model.ok());
  auto index =
      core::MemoryIndex::Build(base2.value(), graph2.value(), *model.value());
  std::vector<std::vector<Neighbor>> results(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    results[q] = index->Search(queries_[q], 10, {64, 10}).results;
  }
  EXPECT_GT(eval::MeanRecallAtK(results, gt_, 10), 0.3);

  for (const char* f : {"/base.fvecs", "/graph.bin", "/model.rpqq"}) {
    std::remove((dir + f).c_str());
  }
}

TEST_F(PipelineTest, HybridBeatsInMemoryRecallAtEqualBeam) {
  // The hybrid index reranks with exact vectors, so at any beam width its
  // recall must dominate the codes-only in-memory search.
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  auto pq = quant::PqQuantizer::Train(base_, popt);
  auto mem = core::MemoryIndex::Build(base_, graph_, *pq);
  auto disk = disk::DiskIndex::Build(base_, graph_, *pq);
  for (size_t beam : {16u, 48u}) {
    std::vector<std::vector<Neighbor>> mem_res(queries_.size()),
        disk_res(queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      mem_res[q] = mem->Search(queries_[q], 10, {beam, 10}).results;
      disk_res[q] = disk->Search(queries_[q], 10, {beam, 10}).results;
    }
    double r_mem = eval::MeanRecallAtK(mem_res, gt_, 10);
    double r_disk = eval::MeanRecallAtK(disk_res, gt_, 10);
    EXPECT_GE(r_disk, r_mem - 1e-9) << "beam " << beam;
  }
}

TEST_F(PipelineTest, SdcMatchesSymmetricDistanceSemantics) {
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  auto pq = quant::PqQuantizer::Train(base_, popt);
  auto codes = pq->EncodeDataset(base_);
  quant::SdcTable table(*pq, queries_[0]);
  std::vector<uint8_t> qcode(pq->code_size());
  pq->Encode(queries_[0], qcode.data());
  for (size_t i = 0; i < 20; ++i) {
    float via_table = table.Distance(codes.data() + i * pq->code_size());
    float via_decode = quant::SymmetricDistance(
        *pq, qcode.data(), codes.data() + i * pq->code_size());
    EXPECT_NEAR(via_table, via_decode, 1e-2f * (1 + via_decode)) << i;
  }
}

// kAdc and kSdc are the float-table search run on their table: Search and
// SearchBatch (20 queries, two tiles) must equal graph::BeamSearch over an
// AdcBatchOracle on quant::AdcTable or quant::SdcTable, answers and work
// alike. The index retains raw rows, so a query that names no rerank stage
// must not reach the refinement epilogue (kAuto would resolve to exact).
TEST_F(PipelineTest, AdcAndSdcSearchAreBeamSearchOverTheirTable) {
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  auto pq = quant::PqQuantizer::Train(base_, popt);
  core::MemoryIndexOptions mopt;
  mopt.store_vectors = true;
  auto index = core::MemoryIndex::Build(base_, graph_, *pq, mopt);
  graph::BeamSearchOptions opt;
  opt.beam_width = 32;
  opt.k = 10;
  std::vector<const float*> ptrs;
  for (size_t q = 0; q < queries_.size(); ++q) ptrs.push_back(queries_[q]);
  for (core::DistanceMode mode :
       {core::DistanceMode::kAdc, core::DistanceMode::kSdc}) {
    auto batch = index->SearchBatch(ptrs.data(), ptrs.size(), 10, opt, mode);
    ASSERT_EQ(batch.size(), queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      const quant::DistanceLut table =
          mode == core::DistanceMode::kSdc
              ? quant::DistanceLut(quant::SdcTable(*pq, queries_[q]))
              : quant::DistanceLut(quant::AdcTable(*pq, queries_[q]));
      quant::AdcBatchOracle oracle{table, index->codes().data(),
                                   pq->code_size()};
      graph::SearchStats stats;
      auto want =
          graph::BeamSearch(graph_, graph_.entry_point(), oracle, opt,
                            graph::TlsVisitedTable(base_.size()), &stats);
      auto single = index->Search(queries_[q], 10, opt, mode);
      for (const core::MemorySearchResult* got : {&single, &batch[q]}) {
        EXPECT_EQ(got->results, want) << "q=" << q;
        EXPECT_EQ(got->stats.hops, stats.hops) << "q=" << q;
        EXPECT_EQ(got->stats.dist_comps, stats.dist_comps) << "q=" << q;
      }
    }
  }
}

TEST_F(PipelineTest, AdcBeatsSdcRecall) {
  // Jegou et al.: ADC has strictly lower distance error; recall should not
  // be worse (the reason the paper adopts ADC).
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  auto pq = quant::PqQuantizer::Train(base_, popt);
  auto index = core::MemoryIndex::Build(base_, graph_, *pq);
  std::vector<std::vector<Neighbor>> adc(queries_.size()), sdc(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    adc[q] = index->Search(queries_[q], 10, {96, 10},
                           core::DistanceMode::kAdc).results;
    sdc[q] = index->Search(queries_[q], 10, {96, 10},
                           core::DistanceMode::kSdc).results;
  }
  EXPECT_GE(eval::MeanRecallAtK(adc, gt_, 10),
            eval::MeanRecallAtK(sdc, gt_, 10) - 0.02);
}

TEST_F(PipelineTest, AllQuantizersServeTheSameIndexInterface) {
  // Polymorphic check across the whole quantizer family.
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  auto pq = quant::PqQuantizer::Train(base_, popt);
  quant::OpqOptions oopt;
  oopt.pq = popt;
  oopt.outer_iters = 2;
  auto opq = quant::TrainOpq(base_, oopt);
  quant::CatalystOptions copt;
  copt.d_out = 16;
  copt.hidden = 32;
  copt.epochs = 1;
  copt.pq.m = 8;
  copt.pq.k = 16;
  auto cat = quant::CatalystQuantizer::Train(base_, copt);

  for (const quant::VectorQuantizer* q :
       {static_cast<const quant::VectorQuantizer*>(pq.get()),
        static_cast<const quant::VectorQuantizer*>(opq.get()),
        static_cast<const quant::VectorQuantizer*>(cat.get())}) {
    auto index = core::MemoryIndex::Build(base_, graph_, *q);
    auto out = index->Search(queries_[0], 10, {32, 10});
    EXPECT_EQ(out.results.size(), 10u);
    EXPECT_GT(out.stats.hops, 0u);
  }
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  // Same seed, same machine => bitwise-identical training result.
  core::RpqTrainOptions topt;
  topt.m = 8;
  topt.k = 32;
  topt.epochs = 1;
  topt.triplets_per_epoch = 64;
  topt.routing_queries_per_epoch = 4;
  topt.seed = 1234;
  auto a = core::TrainRpq(base_, graph_, topt);
  auto b = core::TrainRpq(base_, graph_, topt);
  std::vector<uint8_t> ca(a.quantizer->code_size()), cb(b.quantizer->code_size());
  for (size_t i = 0; i < 50; ++i) {
    a.quantizer->Encode(base_[i], ca.data());
    b.quantizer->Encode(base_[i], cb.data());
    EXPECT_EQ(ca, cb) << "vector " << i;
  }
}

}  // namespace
}  // namespace rpq
