// google-benchmark microbenchmarks of the library's hot kernels: distance
// computation, ADC table construction and scans, k-means steps, matrix
// exponential, differentiable-quantizer forward pass, and beam search.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/distance.h"
#include "common/rng.h"
#include "core/diff_quantizer.h"
#include "core/memory_index.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "graph/beam_search.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "linalg/matexp.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/adc.h"
#include "quant/fastscan.h"
#include "quant/kmeans.h"
#include "quant/linkcode.h"
#include "quant/pq.h"
#include "quant/split.h"
#include "refine/refine.h"
#include "simd/simd.h"

namespace {

using namespace rpq;

void BM_SquaredL2(benchmark::State& state) {
  size_t d = state.range(0);
  Rng rng(1);
  std::vector<float> a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian();
  }
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquaredL2)->Arg(96)->Arg(128)->Arg(960);

// Scalar reference for the same kernel: the dispatched/scalar ratio is the
// headline SIMD speedup (acceptance bar: >= 2x at d = 128 on AVX2 hardware).
void BM_SquaredL2Scalar(benchmark::State& state) {
  size_t d = state.range(0);
  Rng rng(1);
  std::vector<float> a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian();
  }
  const auto& ops = simd::ScalarOps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.squared_l2(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquaredL2Scalar)->Arg(96)->Arg(128)->Arg(960);

// A random dim x dim orthonormal rotation, exp of a skew-symmetric matrix.
linalg::Matrix RandomRotation(size_t dim) {
  Rng rng(11);
  linalg::Matrix g(dim, dim);
  for (size_t i = 0; i < dim * dim; ++i) g.data()[i] = 0.1f * rng.Gaussian();
  return linalg::MatrixExp(linalg::SkewPart(g));
}

// Table-build model for args {m, K, rotated}: plain PQ, or the same
// codebook behind a random rotation — the shape RPQ and OPQ deploy as.
// {64, 256, 1} is the mem_rpq64 model (sub-dim 2 at 128 dims).
std::unique_ptr<quant::PqQuantizer> TableBuildModel(const Dataset& d,
                                                    benchmark::State& state) {
  quant::PqOptions opt;
  opt.m = static_cast<size_t>(state.range(0));
  opt.k = static_cast<size_t>(state.range(1));
  opt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(d, opt);
  if (state.range(2) == 0) return pq;
  return std::make_unique<quant::PqQuantizer>(pq->codebook(),
                                              RandomRotation(d.dim()));
}

void TableBuildArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "k", "rot"});
  b->Args({16, 64, 0})->Args({16, 256, 0})->Args({64, 256, 1});
}

void BM_AdcTableBuild(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(1500, 3);
  auto pq = TableBuildModel(d, state);
  std::vector<float> table(pq->num_chunks() * pq->num_centroids());
  state.SetLabel(simd::ActiveKernelName());
  size_t qi = 0;
  for (auto _ : state) {
    pq->BuildLookupTable(d[qi % d.size()], table.data());
    benchmark::DoNotOptimize(table.data());
    benchmark::ClobberMemory();
    ++qi;
  }
}
BENCHMARK(BM_AdcTableBuild)->Apply(TableBuildArgs);

// The query rotation on its own at D = 128: arg 0 is the row-dot form
// y_i = <R_i, x> (linalg::MatVec, one serial add chain per row), arg 1 is
// PqQuantizer::Rotate, column axpys over the stored R^T that the compiler
// vectorizes. Both sum each output in the same order (bit-identical).
void BM_QueryRotation(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(256, 3);
  const linalg::Matrix r = RandomRotation(d.dim());
  quant::PqQuantizer pq(quant::Codebook(d.dim() / 2, 2, 2), r);
  std::vector<float> out(d.dim());
  size_t qi = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      linalg::MatVec(r, d[qi % d.size()], out.data());
    } else {
      pq.Rotate(d[qi % d.size()], out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++qi;
  }
}
BENCHMARK(BM_QueryRotation)->Arg(0)->Arg(1);

void BM_AdcScan(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 5);
  quant::PqOptions opt;
  opt.m = 16;
  opt.k = 256;
  opt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(d, opt);
  auto codes = pq->EncodeDataset(d);
  quant::AdcTable table(*pq, d[0]);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Distance(codes.data() + (i % d.size()) * pq->code_size()));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdcScan);

// Batched ADC scan over contiguous codes; items/s vs BM_AdcScan is the win
// of DistanceLut's four independent add chains.
void BM_AdcScanBatch(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 5);
  quant::PqOptions opt;
  opt.m = 16;
  opt.k = 256;
  opt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(d, opt);
  auto codes = pq->EncodeDataset(d);
  quant::AdcTable table(*pq, d[0]);
  std::vector<float> dists(d.size());
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    table.DistanceBatch(codes.data(), d.size(), dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_AdcScanBatch);

// Batched ADC scan addressed by shuffled vertex ids — the beam-search
// expansion access pattern.
void BM_AdcScanBatchGather(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 5);
  quant::PqOptions opt;
  opt.m = 16;
  opt.k = 256;
  opt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(d, opt);
  auto codes = pq->EncodeDataset(d);
  quant::AdcTable table(*pq, d[0]);
  Rng rng(3);
  std::vector<uint32_t> ids(d.size());
  for (size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<uint32_t>(rng.UniformIndex(d.size()));
  std::vector<float> dists(d.size());
  for (auto _ : state) {
    table.DistanceBatchGather(codes.data(), pq->code_size(), ids.data(),
                              ids.size(), dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_AdcScanBatchGather);

// FastScan flat scan (4-bit codes, packed 32-code blocks, register-resident
// u8 LUTs). Per-code items/s vs BM_AdcScanBatch (the float-table gather
// scan, a.k.a. BM_AdcBatch in the roadmap) is the headline shuffle-kernel
// win; arg = M so 16 compares at equal chunk count and 32 at equal code
// bits (32x4 = 16x8).
void BM_AdcFastScan(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 5);
  quant::PqOptions opt;
  opt.m = static_cast<size_t>(state.range(0));
  opt.nbits = 4;
  opt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(d, opt);
  auto codes = pq->EncodeDataset(d);
  auto packed = quant::PackedCodes::Pack(codes.data(), d.size(), pq->code_size());
  quant::FastScanTable table(*pq, d[0]);
  std::vector<float> dists(d.size());
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    table.Scan(packed, dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_AdcFastScan)->Arg(16)->Arg(32);

// Split-table flat scan: K = 256 codes scored as two nibble planes through
// the same shuffle kernels, plus the per-vector cross-constant add. The
// per-code gap vs BM_AdcFastScan/16 is the price of the 8-bit regime —
// exactly 2x the LUT rows, so items/s should land near half (the acceptance
// bar is within 2.5x per-code cost).
void BM_AdcFastScanSplit(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 5);
  quant::PqOptions opt;
  opt.m = static_cast<size_t>(state.range(0));
  opt.nbits = 8;
  opt.kmeans_iters = 4;
  auto pq = quant::TrainSplitPq(d, opt);
  auto codes = pq->EncodeDataset(d);
  const size_t m = pq->code_size();
  std::vector<uint8_t> expanded(d.size() * 2 * m);
  for (size_t i = 0; i < d.size(); ++i) {
    quant::ExpandSplitCode(codes.data() + i * m, m,
                           expanded.data() + i * 2 * m);
  }
  auto packed = quant::PackedCodes::Pack(expanded.data(), d.size(), 2 * m);
  const quant::FastScanTable table = quant::SplitTable(*pq, d[0]);
  const quant::SplitPqModel* model = pq->split_model();
  std::vector<float> cross(d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    cross[i] = model->CrossSum(codes.data() + i * m);
  }
  std::vector<uint16_t> sums(packed.num_blocks() * 32);
  std::vector<float> dists(d.size());
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    table.ScanBlocks(packed.data.data(), packed.num_blocks(), sums.data());
    for (size_t i = 0; i < d.size(); ++i) {
      dists[i] = table.DecodeSum(sums[i]) + cross[i];
    }
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_AdcFastScanSplit)->Arg(16);

// The residual regime's per-(query, probed cell) overhead: subtract the
// owning centroid and rebuild the split u8 table from q - centroid. Search
// pays this once per probe; SearchBatch amortizes it across every query in
// the batch probing the same cell.
void BM_IvfResidualLutBuild(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 5);
  quant::KMeansOptions kopt;
  kopt.k = 64;
  auto km = quant::RunKMeans(d.data(), d.size(), d.dim(), kopt);
  // Model trained on the residuals, as the index requires.
  std::vector<float> resid(d.size() * d.dim());
  for (size_t i = 0; i < d.size(); ++i) {
    uint32_t c = quant::NearestCentroid(d[i], km.centroids.data(), kopt.k,
                                        d.dim());
    const float* cen = km.centroids.data() + size_t{c} * d.dim();
    for (size_t j = 0; j < d.dim(); ++j) {
      resid[i * d.dim() + j] = d[i][j] - cen[j];
    }
  }
  Dataset rset(d.size(), d.dim(), std::move(resid));
  quant::PqOptions opt;
  opt.m = 16;
  opt.nbits = 8;
  opt.kmeans_iters = 4;
  auto pq = quant::TrainSplitPq(rset, opt);
  const quant::SplitPqModel& model = *pq->split_model();
  std::vector<float> resq(d.dim());
  size_t probe = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    const float* q = d[probe % 128];
    const float* cen = km.centroids.data() + (probe % kopt.k) * d.dim();
    for (size_t j = 0; j < d.dim(); ++j) resq[j] = q[j] - cen[j];
    const quant::FastScanTable table = quant::SplitTable(model, resq.data());
    benchmark::DoNotOptimize(table.lut8());
    ++probe;
  }
}
BENCHMARK(BM_IvfResidualLutBuild);

void BM_AdcTableBuildScalar(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(1500, 3);
  auto pq = TableBuildModel(d, state);
  // Rebuild the table through the scalar reference kernels, mirroring
  // BuildLookupTable's per-call work (the same Rotate, a copy for plain PQ)
  // so the two benches differ only in the L2ToMany kernel.
  const auto& ops = simd::ScalarOps();
  const size_t m = pq->num_chunks(), k = pq->num_centroids();
  const size_t sub = d.dim() / m;
  std::vector<float> table(m * k);
  size_t qi = 0;
  for (auto _ : state) {
    std::vector<float> rot(d.dim());
    pq->Rotate(d[qi % d.size()], rot.data());
    for (size_t j = 0; j < m; ++j) {
      ops.l2_to_many(rot.data() + j * sub, pq->codebook().Chunk(j), k, sub,
                     table.data() + j * k);
    }
    benchmark::DoNotOptimize(table.data());
    benchmark::ClobberMemory();
    ++qi;
  }
}
BENCHMARK(BM_AdcTableBuildScalar)->Apply(TableBuildArgs);

void BM_KMeansIteration(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(2000, 7);
  for (auto _ : state) {
    quant::KMeansOptions opt;
    opt.k = 64;
    opt.max_iters = 1;
    benchmark::DoNotOptimize(RunKMeans(d.data(), d.size(), d.dim(), opt));
  }
}
BENCHMARK(BM_KMeansIteration);

void BM_MatrixExp(benchmark::State& state) {
  size_t n = state.range(0);
  Rng rng(9);
  linalg::Matrix p(n, n);
  for (size_t i = 0; i < n * n; ++i) p.data()[i] = rng.Gaussian(0, 0.3f);
  linalg::Matrix a = linalg::SkewPart(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatrixExp(a));
  }
}
BENCHMARK(BM_MatrixExp)->Arg(32)->Arg(64)->Arg(128);

void BM_DiffQuantizerForward(benchmark::State& state) {
  Dataset d = synthetic::MakeSiftLike(500, 11);
  core::DiffQuantizerOptions opt;
  opt.m = 16;
  opt.k = static_cast<size_t>(state.range(0));
  core::DiffQuantizer dq(d.dim(), opt);
  dq.InitCodebooks(d);
  dq.CalibrateTemperatures(d.Slice(0, 128));
  Rng rng(13);
  core::ForwardResult f;
  size_t i = 0;
  for (auto _ : state) {
    dq.Forward(d[i % d.size()], &rng, true, &f);
    ++i;
  }
}
BENCHMARK(BM_DiffQuantizerForward)->Arg(64)->Arg(256);

void BM_BeamSearchAdc(benchmark::State& state) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 4000, 50, 15, &base, &queries);
  graph::VamanaOptions vopt;
  vopt.degree = 24;
  vopt.build_beam = 48;
  auto g = graph::BuildVamana(base, vopt);
  quant::PqOptions popt;
  popt.m = 16;
  popt.k = 64;
  popt.kmeans_iters = 6;
  auto pq = quant::PqQuantizer::Train(base, popt);
  auto codes = pq->EncodeDataset(base);
  graph::VisitedTable visited(base.size());
  size_t beam = state.range(0);
  size_t qi = 0;
  for (auto _ : state) {
    quant::AdcTable table(*pq, queries[qi % queries.size()]);
    auto res = graph::BeamSearch(
        g, g.entry_point(),
        [&](uint32_t v) {
          return table.Distance(codes.data() + v * pq->code_size());
        },
        {beam, 10}, &visited);
    benchmark::DoNotOptimize(res);
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BeamSearchAdc)->Arg(16)->Arg(64);

// Same search through the batched oracle: each expansion scores all its
// unvisited neighbors with one DistanceBatchGather call.
void BM_BeamSearchAdcBatch(benchmark::State& state) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 4000, 50, 15, &base, &queries);
  graph::VamanaOptions vopt;
  vopt.degree = 24;
  vopt.build_beam = 48;
  auto g = graph::BuildVamana(base, vopt);
  quant::PqOptions popt;
  popt.m = 16;
  popt.k = 64;
  popt.kmeans_iters = 6;
  auto pq = quant::PqQuantizer::Train(base, popt);
  auto codes = pq->EncodeDataset(base);
  graph::VisitedTable visited(base.size());
  size_t beam = state.range(0);
  size_t qi = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    quant::AdcTable table(*pq, queries[qi % queries.size()]);
    quant::AdcBatchOracle oracle{table, codes.data(), pq->code_size()};
    auto res = graph::BeamSearch(g, g.entry_point(), oracle, {beam, 10}, &visited);
    benchmark::DoNotOptimize(res);
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BeamSearchAdcBatch)->Arg(16)->Arg(64);

// Query-level A/B at one 4-bit quantizer: the same beam search routed by
// the float-ADC batched oracle vs the FastScan shuffle path with float-ADC
// rerank (core::MemoryIndex DistanceMode::kFastScan). Both report searches/s
// through the full MemoryIndex entry point. The corpus is sized so the code
// array spills L2 — the production regime, where the ADC path's scattered
// per-neighbor gathers stall on cache misses while FastScan reads one
// sequential (and beam-prefetched) block per expansion. On the dev box the
// crossover sits around n = 50k; at n = 100k FastScan wins ~1.2x, growing
// with corpus size. (The fixture build dominates harness startup: ~1 min.)
struct FastScanQueryFixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::unique_ptr<core::MemoryIndex> index;
};

FastScanQueryFixture& QueryFixture() {
  static FastScanQueryFixture f = [] {
    FastScanQueryFixture x;
    synthetic::MakeBaseAndQueries("sift", 100000, 50, 15, &x.base, &x.queries);
    graph::VamanaOptions vopt;
    vopt.degree = 31;
    vopt.build_beam = 48;
    x.graph = graph::BuildVamana(x.base, vopt);
    quant::PqOptions popt;
    popt.m = 16;
    popt.nbits = 4;
    popt.kmeans_iters = 6;
    x.pq = quant::PqQuantizer::Train(x.base, popt);
    x.index = core::MemoryIndex::Build(x.base, x.graph, *x.pq);
    return x;
  }();
  return f;
}

void BM_BeamSearchFourBit(benchmark::State& state, core::DistanceMode mode) {
  FastScanQueryFixture& f = QueryFixture();
  size_t beam = state.range(0);
  size_t qi = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    auto res = f.index->Search(f.queries[qi % f.queries.size()], 10,
                               {beam, 10}, mode);
    benchmark::DoNotOptimize(res);
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BeamSearchAdc4bit(benchmark::State& state) {
  BM_BeamSearchFourBit(state, core::DistanceMode::kAdc);
}
BENCHMARK(BM_BeamSearchAdc4bit)->Arg(16)->Arg(64);

void BM_BeamSearchFastScan(benchmark::State& state) {
  BM_BeamSearchFourBit(state, core::DistanceMode::kFastScan);
}
BENCHMARK(BM_BeamSearchFastScan)->Arg(16)->Arg(64);

// Per-candidate cost of the refinement stages (src/refine/): the float-ADC
// batched gather, the exact raw-row squared L2, and the Link&Code
// neighbor-regression reconstruction, each re-scoring the same 64-candidate
// set one epilogue would. Items = candidates, so items/s ranks the stages'
// per-candidate cost directly; recall-wise they rank the other way (exact >
// linkcode > adc) — the trade the --rerank-mode knob exposes.
struct RerankStageFixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::vector<uint8_t> codes;
  std::unique_ptr<quant::LinkCodeIndex> linkcode;
  std::vector<refine::Candidate> cands;
};

RerankStageFixture& RerankFixture() {
  // Built in place behind a pointer: linkcode holds references into base
  // and graph, so the fixture must never be moved after construction.
  static RerankStageFixture* f = [] {
    auto* x = new RerankStageFixture;
    synthetic::MakeBaseAndQueries("sift", 20000, 8, 19, &x->base, &x->queries);
    graph::VamanaOptions vopt;
    vopt.degree = 16;
    vopt.build_beam = 32;
    x->graph = graph::BuildVamana(x->base, vopt);
    quant::PqOptions popt;
    popt.m = 16;
    popt.nbits = 4;
    popt.kmeans_iters = 4;
    x->pq = quant::PqQuantizer::Train(x->base, popt);
    x->codes = x->pq->EncodeDataset(x->base);
    quant::LinkCodeOptions lopt;
    lopt.pq = popt;
    lopt.num_links = 8;
    x->linkcode = quant::LinkCodeIndex::Build(x->base, x->graph, lopt);
    Rng rng(29);
    for (int i = 0; i < 64; ++i) {
      x->cands.push_back(
          {0.f, static_cast<uint32_t>(rng.UniformIndex(x->base.size())), 0});
    }
    return x;
  }();
  return *f;
}

void BM_RerankStage(benchmark::State& state, int stage) {
  RerankStageFixture& f = RerankFixture();
  const float* query = f.queries[0];
  quant::AdcTable lut(*f.pq, query);
  std::vector<float> out(f.cands.size());
  std::unique_ptr<refine::Refiner> refiner;
  if (stage == 0) {
    refiner = std::make_unique<refine::AdcRefiner>(lut, f.codes.data(),
                                                   f.pq->code_size());
  } else if (stage == 1) {
    refiner = std::make_unique<refine::ExactRefiner>(query, f.base.dim(),
                                                     f.base.data());
  } else {
    refiner = std::make_unique<refine::LinkCodeRefiner>(query, *f.linkcode);
  }
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    refiner->Refine(f.cands.data(), f.cands.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.cands.size());
}

void BM_RerankStageAdc(benchmark::State& state) { BM_RerankStage(state, 0); }
BENCHMARK(BM_RerankStageAdc);
void BM_RerankStageExact(benchmark::State& state) { BM_RerankStage(state, 1); }
BENCHMARK(BM_RerankStageExact);
void BM_RerankStageLinkCode(benchmark::State& state) {
  BM_RerankStage(state, 2);
}
BENCHMARK(BM_RerankStageLinkCode);

// Multi-query FastScan (the IVF batched list scan): one pass over the packed
// blocks scores Q queries' LUTs while each block row is register-resident.
// Compare per-item (item = code x query) against BM_IvfScanSingleQ, which
// runs the same workload as Q independent single-query scans — the
// acceptance bar is multi beating single per code at Q in {2, 4, 8}. The
// 1024-block (256 KB) working set models a batch's probed lists spilling L1
// — the win comes from reading each block once instead of Q times, so it
// GROWS with the working set (~1.05x L1-resident, ~1.3x at 4 MB) and the
// L1-bound BM_IvfScan/1-vs-BM_AdcFastScan gap stays near zero.
struct MultiScanFixture {
  std::vector<uint8_t> luts, packed;
  std::vector<uint16_t> sums;
};

MultiScanFixture MakeMultiScanFixture(size_t q_count, size_t m2,
                                      size_t n_blocks) {
  Rng rng(23);
  MultiScanFixture f;
  f.luts.resize(q_count * m2 * 16);
  f.packed.resize(n_blocks * 16 * m2);
  f.sums.resize(q_count * n_blocks * 32);
  for (auto& v : f.luts) v = static_cast<uint8_t>(rng.UniformIndex(256));
  for (auto& v : f.packed) v = static_cast<uint8_t>(rng.UniformIndex(256));
  return f;
}

void BM_IvfScan(benchmark::State& state) {
  const size_t q_count = static_cast<size_t>(state.range(0));
  const size_t m2 = 16, n_blocks = 1024;  // 32k codes, m = 16 (paper default)
  MultiScanFixture f = MakeMultiScanFixture(q_count, m2, n_blocks);
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    simd::AdcFastScanMulti(f.luts.data(), q_count, m2, f.packed.data(),
                           n_blocks, f.sums.data());
    benchmark::DoNotOptimize(f.sums.data());
  }
  state.SetItemsProcessed(state.iterations() * q_count * n_blocks * 32);
}
BENCHMARK(BM_IvfScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_IvfScanSingleQ(benchmark::State& state) {
  const size_t q_count = static_cast<size_t>(state.range(0));
  const size_t m2 = 16, n_blocks = 1024;
  MultiScanFixture f = MakeMultiScanFixture(q_count, m2, n_blocks);
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    for (size_t q = 0; q < q_count; ++q) {
      simd::AdcFastScan(f.luts.data() + q * m2 * 16, m2, f.packed.data(),
                        n_blocks, f.sums.data() + q * n_blocks * 32);
    }
    benchmark::DoNotOptimize(f.sums.data());
  }
  state.SetItemsProcessed(state.iterations() * q_count * n_blocks * 32);
}
BENCHMARK(BM_IvfScanSingleQ)->Arg(2)->Arg(4)->Arg(8);

// Query-level IVF vs beam search: the same 100k corpus and 4-bit model as
// BM_BeamSearchFastScan, served by coarse routing + flat list scans instead
// of graph traversal. Arg = nprobe; searches/s lines up against the beam
// benchmarks in the same JSON (nprobe trades recall for scans the way beam
// width trades recall for hops).
ivf::IvfIndex& IvfFixture() {
  static std::unique_ptr<ivf::IvfIndex> index = [] {
    FastScanQueryFixture& f = QueryFixture();
    ivf::IvfOptions opt;
    opt.nlist = 256;
    opt.kmeans_iters = 10;
    opt.train_sample = 20000;  // caps coarse-kmeans cost on the 100k corpus
    return ivf::IvfIndex::Build(f.base, *f.pq, opt);
  }();
  return *index;
}

void BM_IvfVsBeam(benchmark::State& state) {
  ivf::IvfIndex& index = IvfFixture();
  FastScanQueryFixture& f = QueryFixture();
  ivf::IvfSearchOptions opt;
  opt.nprobe = static_cast<size_t>(state.range(0));
  size_t qi = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    auto res = index.Search(f.queries[qi % f.queries.size()], 10, opt);
    benchmark::DoNotOptimize(res);
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IvfVsBeam)->Arg(4)->Arg(8)->Arg(16);

// The batched entry point: Q queries in one SearchBatch, items = queries,
// so per-item time compares against BM_IvfVsBeam/8 (per-query Search at the
// same nprobe). How much the multi-query kernel helps depends on probe
// OVERLAP: arg pair (Q, hot) benches both a uniform batch of distinct
// queries (hot = 0 — at nlist = 256, nprobe = 8 probe sets rarely collide,
// so per-item cost is Search plus grouping bookkeeping) and a hot batch of
// one repeated query (hot = 1 — every list shared by all Q, the serving
// pattern trending queries create and the sharing upper bound).
void BM_IvfSearchBatch(benchmark::State& state) {
  ivf::IvfIndex& index = IvfFixture();
  FastScanQueryFixture& f = QueryFixture();
  const size_t q_count = static_cast<size_t>(state.range(0));
  const bool hot = state.range(1) != 0;
  ivf::IvfSearchOptions opt;
  opt.nprobe = 8;
  std::vector<const float*> batch(q_count);
  size_t qi = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    for (size_t i = 0; i < q_count; ++i) {
      batch[i] = f.queries[(qi + (hot ? 0 : i)) % f.queries.size()];
    }
    auto res = index.SearchBatch(batch.data(), q_count, 10, opt);
    benchmark::DoNotOptimize(res);
    qi += hot ? 1 : q_count;
  }
  state.SetItemsProcessed(state.iterations() * q_count);
}
BENCHMARK(BM_IvfSearchBatch)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1})
    ->Args({8, 1});

// ------------------------------------------------------- observability -----
//
// The registry hot path (src/obs/): one enabled-flag load plus a relaxed
// load+store on the calling thread's shard per Add(), a few more for a
// histogram sample. Single-digit nanoseconds — the per-QUERY granularity the
// search paths record at makes the cost invisible next to a multi-10us
// search, which BM_TracedSearch pins end to end.

void BM_ObsCounterInc(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::SetMetricsEnabled(enabled);
  state.SetLabel(enabled ? "enabled" : "disabled");
  static const obs::CounterId id = obs::GetCounter("bench.counter");
  for (auto _ : state) {
    obs::Add(id, 1);
  }
  obs::SetMetricsEnabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc)->Arg(0)->Arg(1);

void BM_ObsHistogramRecord(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::SetMetricsEnabled(enabled);
  state.SetLabel(enabled ? "enabled" : "disabled");
  static const obs::HistogramId id = obs::GetHistogram("bench.histogram");
  uint64_t v = 1;
  for (auto _ : state) {
    obs::Record(id, v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap value mix
  }
  obs::SetMetricsEnabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord)->Arg(0)->Arg(1);

// The same query loop as BM_BeamSearchFastScan with the full observability
// surface ON: registry metrics enabled and a per-query QueryTrace threaded
// through Search. Compare searches/s against BM_BeamSearchFastScan at the
// same beam — the acceptance bar is <2% regression.
void BM_TracedSearch(benchmark::State& state) {
  FastScanQueryFixture& f = QueryFixture();
  const size_t beam = state.range(0);
  CalibrateTickClock();
  obs::SetMetricsEnabled(true);
  size_t qi = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    obs::QueryTrace trace;
    auto res = f.index->Search(f.queries[qi % f.queries.size()], 10,
                               {beam, 10}, core::DistanceMode::kFastScan, {},
                               &trace);
    benchmark::DoNotOptimize(res);
    benchmark::DoNotOptimize(trace);
    ++qi;
  }
  obs::SetMetricsEnabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracedSearch)->Arg(16)->Arg(64);

// Flight-recorder hot path: the admission decision a healthy query pays when
// the recorder is armed. Arg(0) = recorder disabled (one relaxed load);
// Arg(1) = enabled but nothing admitted (policy checks only — the common
// case); Arg(2) = enabled and every call admitted (mutex + ring write — the
// policy-rare path, benchmarked to show what rarity is buying).
void BM_FlightRecorderObserve(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  obs::FlightRecorder recorder;
  obs::FlightRecorderOptions opt;
  opt.capacity = 256;
  opt.slow_us = mode == 2 ? 1 : 1000000000;  // admit-all vs admit-none
  recorder.Configure(opt);
  recorder.SetEnabled(mode != 0);
  state.SetLabel(mode == 0 ? "disabled"
                           : (mode == 1 ? "armed-not-admitted" : "admit-all"));
  obs::QueryObservation o;
  o.latency_us = 50;
  o.k = 10;
  o.width = 64;
  for (auto _ : state) {
    recorder.Observe(o);
    benchmark::DoNotOptimize(recorder);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderObserve)->Arg(0)->Arg(1)->Arg(2);

// BM_TracedSearch with the flight recorder armed on top of metrics+trace:
// the interleaved A/B against BM_TracedSearch at the same beam isolates the
// recorder + windowed-view overhead (the acceptance bar is <2%; a healthy
// query's added cost is one Observe() admission check, and snapshot diffing
// happens on the scraper's thread, not here).
void BM_TracedSearchRecorded(benchmark::State& state) {
  FastScanQueryFixture& f = QueryFixture();
  const size_t beam = state.range(0);
  CalibrateTickClock();
  obs::SetMetricsEnabled(true);
  obs::FlightRecorder& recorder = obs::GlobalFlightRecorder();
  obs::FlightRecorderOptions opt;
  opt.capacity = 256;
  opt.slow_us = 1000000;  // 1s: nothing here admits, the serving common case
  recorder.Configure(opt);
  recorder.SetEnabled(true);
  size_t qi = 0;
  state.SetLabel(simd::ActiveKernelName());
  for (auto _ : state) {
    obs::QueryTrace trace;
    const uint64_t start = TickNow();
    auto res = f.index->Search(f.queries[qi % f.queries.size()], 10,
                               {beam, 10}, core::DistanceMode::kFastScan, {},
                               &trace);
    obs::QueryObservation o;
    o.latency_us = TicksToNanos(TickNow() - start) / 1000;
    o.k = 10;
    o.width = static_cast<uint32_t>(beam);
    o.trace = &trace;
    recorder.Observe(o);
    benchmark::DoNotOptimize(res);
    benchmark::DoNotOptimize(trace);
    ++qi;
  }
  recorder.SetEnabled(false);
  obs::SetMetricsEnabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracedSearchRecorded)->Arg(16)->Arg(64);

// Async disk search across the (queue_depth, io_width, readahead) grid. The
// wall-clock rate measures CPU cost of the wave machinery (submission,
// prefetch cache, rerank); the sim_io_us_per_q counter reports the simulated
// overlapped device time that the serving metrics gate — at QD 8 / width 8
// it should sit ~8x under the {1,1,0} sequential baseline.
struct DiskAsyncFixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
};

DiskAsyncFixture& DiskFixture() {
  static DiskAsyncFixture f = [] {
    DiskAsyncFixture x;
    synthetic::MakeBaseAndQueries("sift", 20000, 50, 23, &x.base, &x.queries);
    graph::VamanaOptions vopt;
    vopt.degree = 24;
    vopt.build_beam = 48;
    x.graph = graph::BuildVamana(x.base, vopt);
    quant::PqOptions popt;
    popt.m = 16;
    popt.nbits = 4;
    popt.kmeans_iters = 6;
    x.pq = quant::PqQuantizer::Train(x.base, popt);
    return x;
  }();
  return f;
}

void BM_DiskSearchAsync(benchmark::State& state) {
  DiskAsyncFixture& f = DiskFixture();
  disk::DiskIndexOptions dopt;
  dopt.ssd.queue_depth = static_cast<size_t>(state.range(0));
  dopt.io_width = static_cast<size_t>(state.range(1));
  dopt.readahead = static_cast<size_t>(state.range(2));
  auto index = disk::DiskIndex::Build(f.base, f.graph, *f.pq, dopt);
  size_t qi = 0;
  double sim_io = 0;
  for (auto _ : state) {
    auto res = index->Search(f.queries[qi % f.queries.size()], 10, {64, 10});
    sim_io += res.io.simulated_seconds;
    benchmark::DoNotOptimize(res);
    ++qi;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_io_us_per_q"] =
      sim_io * 1e6 / static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_DiskSearchAsync)
    ->Args({1, 1, 0})    // sequential baseline (QD cannot help width 1)
    ->Args({8, 1, 0})
    ->Args({8, 4, 0})
    ->Args({8, 8, 0})
    ->Args({8, 8, 4})    // full async: wide waves + readahead
    ->Args({8, 1, 4});   // readahead-only: hits without wide waves

}  // namespace

BENCHMARK_MAIN();
