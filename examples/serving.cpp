// Serving walkthrough: take one trained index from single-caller to a
// concurrent front end step by step —
//   1. wrap the index in a SearchService,
//   2. replay queries concurrently on a ServingEngine (results identical
//      to serial),
//   3. shard the corpus and fan queries out with merged top-k,
//   4. group in-flight queries with the MicroBatcher,
//   5. measure QPS / tail latency with the closed- and open-loop loadgen,
//   6. keep serving while a FreshVamana index ingests a live stream.
//
//   $ ./serving
#include <cstdio>
#include <thread>

#include "core/rpq.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/fresh_vamana.h"
#include "graph/vamana.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "serve/sharded.h"

int main() {
  // 0. Corpus + a trained quantizer (see quickstart.cpp for this part).
  rpq::Dataset base, queries;
  rpq::synthetic::MakeBaseAndQueries("sift", 4000, 64, /*seed=*/42, &base,
                                     &queries);
  rpq::graph::VamanaOptions vopt;
  vopt.degree = 24;
  vopt.build_beam = 48;
  auto graph = rpq::graph::BuildVamana(base, vopt);
  rpq::core::RpqTrainOptions topt;
  topt.m = 16;
  topt.k = 64;
  topt.epochs = 1;
  topt.triplets_per_epoch = 256;
  topt.routing_queries_per_epoch = 16;
  auto trained = rpq::core::TrainRpq(base, graph, topt);
  auto index = rpq::core::MemoryIndex::Build(base, graph, *trained.quantizer);
  auto gt = rpq::ComputeGroundTruth(base, queries, 10);

  // 1. A SearchService is the thread-safe front end over one backend.
  rpq::serve::MemoryIndexService service(*index);

  // 2. ServingEngine replays queries across worker threads; per-worker
  //    scratch is thread-local, so concurrent results == serial results.
  rpq::serve::ServingEngine engine(service, {/*threads=*/4});
  rpq::serve::QuerySpec spec;  // k = 10, beam_width = 64
  auto outs = engine.SearchAll(queries, spec);
  std::vector<std::vector<rpq::Neighbor>> results(outs.size());
  for (size_t q = 0; q < outs.size(); ++q) results[q] = outs[q].results;
  std::printf("engine (%zu workers): recall@10 = %.3f\n", engine.num_threads(),
              rpq::eval::MeanRecallAtK(results, gt, 10));

  // 3. Shard the corpus: S independent graphs + codes, per-query fan-out,
  //    deterministic (distance, id) top-k merge.
  auto sharded =
      rpq::serve::BuildShardedMemoryIndex(base, *trained.quantizer, 4, vopt);
  rpq::serve::ServingEngine sharded_engine(*sharded.service, {4});
  outs = sharded_engine.SearchAll(queries, spec);
  for (size_t q = 0; q < outs.size(); ++q) results[q] = outs[q].results;
  std::printf("4 shards: recall@10 = %.3f (%.1f MB resident)\n",
              rpq::eval::MeanRecallAtK(results, gt, 10),
              sharded.MemoryBytes() / 1e6);

  // 4. MicroBatcher: async submissions grouped into batches that amortize
  //    ADC table construction through MemoryIndex::SearchBatch.
  {
    rpq::serve::BatcherOptions bopt;
    bopt.max_batch = 8;
    rpq::serve::MicroBatcher batcher(engine, bopt);
    std::vector<std::future<rpq::serve::QueryResult>> futures;
    for (size_t q = 0; q < queries.size(); ++q) {
      futures.push_back(batcher.Submit({queries[q], 10, 64}));
    }
    batcher.Flush();
    for (size_t q = 0; q < futures.size(); ++q) {
      results[q] = futures[q].get().results;
    }
    std::printf("batcher: %zu queries in %zu batches, recall@10 = %.3f\n",
                batcher.queries_submitted(), batcher.batches_dispatched(),
                rpq::eval::MeanRecallAtK(results, gt, 10));
  }

  // 5. Load generation: closed loop (saturated clients) and open loop
  //    (Poisson arrivals; latency includes queueing).
  rpq::serve::LoadgenOptions lopt;
  lopt.spec = spec;
  lopt.threads = 4;
  lopt.total_queries = 512;
  auto closed = rpq::serve::RunClosedLoop(service, queries, lopt);
  rpq::serve::PrintReport("closed-loop x4", closed);

  lopt.arrival_qps = closed.qps * 0.6;  // offer 60% of saturated throughput
  auto open = rpq::serve::RunOpenLoop(engine, queries, lopt);
  rpq::serve::PrintReport("open-loop @60%", open);

  // 6. Streaming: FreshVamana serves reads under shared-lock epochs while a
  //    writer inserts — readers only pause for individual write critical
  //    sections, never for each other.
  rpq::graph::FreshVamanaIndex fresh(base.dim(), vopt);
  for (size_t i = 0; i < 1000; ++i) fresh.Insert(base[i]);
  rpq::serve::FreshVamanaService fresh_service(fresh);
  std::thread writer([&] {
    for (size_t i = 1000; i < 1500; ++i) fresh.Insert(base[i]);
  });
  size_t served = 0;
  while (fresh.size() < 1500) {
    auto r = fresh_service.Search({queries[served % queries.size()], 10, 64});
    served += r.results.empty() ? 0 : 1;
  }
  writer.join();
  std::printf("streaming: served %zu queries during 500 live inserts "
              "(%zu vectors indexed)\n",
              served, fresh.size());
  return 0;
}
