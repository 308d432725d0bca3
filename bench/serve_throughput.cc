// Query-level serving throughput: QPS over a (worker threads x shards x
// batched-dispatch) grid on the in-memory ADC backend. Registers into the
// micro-kernel harness (bench_micro_kernels / BENCH_micro.json via
// bench/run_micro.sh) so the tracked numbers include end-to-end query
// throughput, not just kernel wins; also built standalone as
// bench_serve_throughput.
//
// Scaling expectation: on multi-core (CI-class) hardware the 4-thread rows
// exceed the 1-thread rows by >2x; on a single-core host the grid still
// runs but collapses to ~1x (the engine degrades to an inline loop).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/memory_index.h"
#include "data/synthetic.h"
#include "graph/vamana.h"
#include "quant/pq.h"
#include "serve/engine.h"
#include "serve/sharded.h"

namespace {

using namespace rpq;

constexpr size_t kQueries = 64;
constexpr size_t kK = 10;
constexpr size_t kBeam = 32;

struct ServeFixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::unique_ptr<core::MemoryIndex> index;
  std::unique_ptr<serve::MemoryIndexService> single;
  serve::ShardedMemoryIndex sharded4;
};

// Built once, lazily, on first use (shared by every grid point).
const ServeFixture& Fixture() {
  static ServeFixture* f = [] {
    auto* fx = new ServeFixture();
    synthetic::MakeBaseAndQueries("sift", 6000, kQueries, /*seed=*/29,
                                  &fx->base, &fx->queries);
    graph::VamanaOptions vopt;
    vopt.degree = 24;
    vopt.build_beam = 48;
    fx->graph = graph::BuildVamana(fx->base, vopt);
    quant::PqOptions popt;
    popt.m = 16;
    popt.k = 64;
    fx->pq = quant::PqQuantizer::Train(fx->base, popt);
    fx->index = core::MemoryIndex::Build(fx->base, fx->graph, *fx->pq);
    fx->single = std::make_unique<serve::MemoryIndexService>(*fx->index);
    fx->sharded4 = serve::BuildShardedMemoryIndex(fx->base, *fx->pq, 4, vopt);
    return fx;
  }();
  return *f;
}

// args: (worker threads, shards, batched dispatch 0/1)
void BM_ServeThroughput(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  const bool batched = state.range(2) != 0;
  const ServeFixture& f = Fixture();
  const serve::SearchService& service =
      shards > 1 ? static_cast<const serve::SearchService&>(*f.sharded4.service)
                 : *f.single;
  serve::ServingEngine engine(service, {threads});

  std::vector<serve::QuerySpec> specs;
  specs.reserve(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    specs.push_back({f.queries[q], kK, kBeam});
  }

  size_t completed = 0;
  for (auto _ : state) {
    // Batched dispatch routes workers through SearchService::SearchBatch
    // (amortized ADC table builds); unbatched issues one Search per query.
    auto results = batched ? engine.SearchAll(specs)
                           : engine.SearchAll(f.queries, {nullptr, kK, kBeam});
    benchmark::DoNotOptimize(results.data());
    completed += results.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["QPS"] = benchmark::Counter(
      static_cast<double>(completed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeThroughput)
    ->ArgsProduct({{1, 2, 4}, {1, 4}, {0, 1}})
    ->ArgNames({"threads", "shards", "batch"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
