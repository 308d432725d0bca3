// Tests for the concurrent query-serving subsystem (src/serve/):
//  (a) engine-parallel search on one MemoryIndex equals serial execution,
//  (b) sharded fan-out + top-k merge equals the unsharded result, including
//      exact-duplicate vectors and tie distances,
//  (c) FreshVamana readers make progress during Insert/Delete/Consolidate,
// plus micro-batcher equivalence and load-generator accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/memory_index.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "eval/recall.h"
#include "graph/fresh_vamana.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "quant/pq.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/ivf_service.h"
#include "serve/loadgen.h"
#include "serve/sharded.h"

namespace rpq::serve {
namespace {

struct Fixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::unique_ptr<core::MemoryIndex> index;
};

Fixture MakeFixture(size_t n = 1000, size_t nq = 20, uint64_t seed = 7) {
  Fixture f;
  synthetic::MakeBaseAndQueries("sift", n, nq, seed, &f.base, &f.queries);
  graph::VamanaOptions vopt;
  vopt.degree = 16;
  vopt.build_beam = 32;
  f.graph = graph::BuildVamana(f.base, vopt);
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  f.pq = quant::PqQuantizer::Train(f.base, popt);
  f.index = core::MemoryIndex::Build(f.base, f.graph, *f.pq);
  return f;
}

// ------------------------------------------------------------- engine ----

TEST(ServingEngineTest, ConcurrentSearchEqualsSerial) {
  Fixture f = MakeFixture();
  MemoryIndexService service(*f.index);
  ServingEngine serial(service, {1});
  ServingEngine parallel(service, {4});

  auto a = serial.SearchAll(f.queries, {nullptr, 10, 48});
  auto b = parallel.SearchAll(f.queries, {nullptr, 10, 48});
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].results, b[q].results) << "query " << q;
    EXPECT_EQ(a[q].stats.hops, b[q].stats.hops);
  }
}

TEST(ServingEngineTest, SubmitResolvesFutures) {
  Fixture f = MakeFixture(600, 8);
  MemoryIndexService service(*f.index);
  ServingEngine engine(service, {2});
  std::vector<std::future<QueryResult>> futs;
  for (size_t q = 0; q < f.queries.size(); ++q) {
    futs.push_back(engine.Submit({f.queries[q], 10, 48}));
  }
  for (size_t q = 0; q < futs.size(); ++q) {
    EXPECT_EQ(futs[q].get().results,
              service.Search({f.queries[q], 10, 48}).results);
  }
}

// ------------------------------------------------------------ sharding ----

// Corpus designed to stress the merge: duplicate rows (identical vectors at
// different global ids) and distinct rows tied at exactly the same distance
// from the query. The sharded merge must reproduce the unsharded exact
// top-k bit-for-bit, because Neighbor's (dist, id) order is total.
TEST(ShardedServiceTest, ExactShardMergeEqualsUnsharded) {
  const size_t dim = 4;
  Dataset base(40, dim);
  for (size_t i = 0; i < 40; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      base[i][d] = static_cast<float>((i * 7 + d * 3) % 11);
    }
  }
  // Exact duplicates placed in different shards (shard size is 10).
  for (size_t d = 0; d < dim; ++d) {
    base[5][d] = base[25][d] = base[35][d] = 1.0f;
    // Tie distances without duplication: unit vectors along each axis are
    // all at distance 1 from the origin query.
    base[12][d] = base[22][d] = base[33][d] = 0.0f;
  }
  base[12][0] = 1.0f;
  base[22][1] = 1.0f;
  base[33][2] = -1.0f;

  ExactService global(base);
  std::vector<Dataset> slices;
  std::vector<ExactService> shard_services;
  slices.reserve(4);
  shard_services.reserve(4);
  std::vector<Shard> shards;
  for (size_t s = 0; s < 4; ++s) {
    slices.push_back(base.Slice(s * 10, (s + 1) * 10));
  }
  for (size_t s = 0; s < 4; ++s) {
    shard_services.emplace_back(slices[s]);
    std::vector<uint32_t> ids(10);
    for (size_t i = 0; i < 10; ++i) ids[i] = static_cast<uint32_t>(s * 10 + i);
    shards.push_back({&shard_services[s], std::move(ids)});
  }
  ShardedService sharded(std::move(shards));

  std::vector<std::vector<float>> queries = {
      std::vector<float>(dim, 0.0f),   // ties: unit vectors all at dist 1
      std::vector<float>(dim, 1.0f),   // duplicates at dist 0
      {3.0f, 1.0f, 4.0f, 1.0f},
  };
  for (const auto& q : queries) {
    for (size_t k : {1u, 3u, 7u, 15u, 40u, 64u}) {
      auto expect = global.Search({q.data(), k, 64});
      auto got = sharded.Search({q.data(), k, 64});
      EXPECT_EQ(expect.results, got.results) << "k=" << k;
    }
  }
}

// The per-query parallel fan-out must reproduce the serial fan-out
// bit-for-bit: shards run concurrently but the (dist, global id) merge is
// applied in shard order after all complete.
TEST(ShardedServiceTest, ParallelShardFanoutEqualsSerial) {
  Fixture f = MakeFixture(1200, 16);
  std::vector<Dataset> slices;
  std::vector<ExactService> shard_services;
  const size_t num_shards = 4, per = f.base.size() / 4;
  slices.reserve(num_shards);
  shard_services.reserve(num_shards);
  auto make_shards = [&] {
    std::vector<Shard> shards;
    for (size_t s = 0; s < num_shards; ++s) {
      std::vector<uint32_t> ids(per);
      for (size_t i = 0; i < per; ++i) {
        ids[i] = static_cast<uint32_t>(s * per + i);
      }
      shards.push_back({&shard_services[s], std::move(ids)});
    }
    return shards;
  };
  for (size_t s = 0; s < num_shards; ++s) {
    slices.push_back(f.base.Slice(s * per, (s + 1) * per));
  }
  for (size_t s = 0; s < num_shards; ++s) shard_services.emplace_back(slices[s]);

  ShardedService serial(make_shards());
  ShardedOptions popt;
  popt.parallel_shards = true;
  ShardedService parallel(make_shards(), popt);

  for (size_t q = 0; q < f.queries.size(); ++q) {
    auto a = serial.Search({f.queries[q], 10, 64});
    auto b = parallel.Search({f.queries[q], 10, 64});
    EXPECT_EQ(a.results, b.results) << "query " << q;
    EXPECT_EQ(a.stats.dist_comps, b.stats.dist_comps);
  }
}

// Shard-wait satellite: both fan-out shapes populate serve.shard_wait_ns —
// one sample per shard result a query's merge used — so hedge/timeout
// tuning has a distribution to read.
TEST(ShardedServiceTest, ShardWaitHistogramPopulated) {
  Fixture f = MakeFixture(400, 6);
  graph::VamanaOptions vopt;
  vopt.degree = 8;
  vopt.build_beam = 16;
  auto serial_deploy = BuildShardedMemoryIndex(f.base, *f.pq, 3, vopt);
  ShardedOptions popt;
  popt.parallel_shards = true;
  auto parallel_deploy = BuildShardedMemoryIndex(f.base, *f.pq, 3, vopt, popt);
  const size_t n_serial = serial_deploy.shards.size();
  const size_t n_parallel = parallel_deploy.shards.size();

  obs::SetMetricsEnabled(true);
  const obs::Snapshot before = obs::TakeSnapshot();
  for (size_t q = 0; q < f.queries.size(); ++q) {
    serial_deploy.service->Search({f.queries[q], 5, 32});
    parallel_deploy.service->Search({f.queries[q], 5, 32});
  }
  const obs::Snapshot after = obs::TakeSnapshot();
  obs::SetMetricsEnabled(false);

  const obs::WindowedView view = obs::DiffSnapshots(before, after, 1.0);
  const obs::WindowedHistogram* waits =
      view.FindHistogram("serve.shard_wait_ns");
  ASSERT_NE(waits, nullptr);
  // Every shard of every query answered (no timeouts configured), so every
  // fan-out contributed exactly one wait sample per shard.
  EXPECT_EQ(waits->interval.count,
            f.queries.size() * (n_serial + n_parallel));
  EXPECT_GT(waits->interval.sum, 0u);
}

TEST(ShardedServiceTest, ShardedMemoryIndexRecallMatchesUnsharded) {
  Fixture f = MakeFixture(1200, 24);
  auto gt = ComputeGroundTruth(f.base, f.queries, 10);

  MemoryIndexService single(*f.index);
  graph::VamanaOptions vopt;
  vopt.degree = 16;
  vopt.build_beam = 32;
  auto sharded = BuildShardedMemoryIndex(f.base, *f.pq, 3, vopt);
  ASSERT_EQ(sharded.shards.size(), 3u);

  ServingEngine e1(single, {2});
  ServingEngine e2(*sharded.service, {2});
  auto r1 = e1.SearchAll(f.queries, {});
  auto r2 = e2.SearchAll(f.queries, {});
  std::vector<std::vector<Neighbor>> res1(r1.size()), res2(r2.size());
  for (size_t q = 0; q < r1.size(); ++q) {
    res1[q] = r1[q].results;
    res2[q] = r2[q].results;
  }
  double rec1 = eval::MeanRecallAtK(res1, gt, 10);
  double rec2 = eval::MeanRecallAtK(res2, gt, 10);
  // Each shard searches its full slice with the same beam, so the sharded
  // deployment explores at least as much of the corpus; its recall must be
  // in the same band as the single index (sharding must not break search).
  EXPECT_GT(rec2, rec1 - 0.05);
}

TEST(ShardedServiceTest, ShardCountClampedToCorpus) {
  Fixture f = MakeFixture(40, 4);
  graph::VamanaOptions vopt;
  vopt.degree = 8;
  vopt.build_beam = 16;
  auto sharded = BuildShardedMemoryIndex(f.base, *f.pq, 7, vopt);
  size_t covered = 0;
  for (const auto& s : sharded.shards) covered += s->base.size();
  EXPECT_EQ(covered, f.base.size());
  auto res = sharded.service->Search({f.queries[0], 5, 32});
  EXPECT_EQ(res.results.size(), 5u);
}

// ------------------------------------------------------------- batcher ----

TEST(MicroBatcherTest, BatchedResultsMatchDirectSearch) {
  Fixture f = MakeFixture(800, 32);
  MemoryIndexService service(*f.index);
  ServingEngine engine(service, {2});
  BatcherOptions bopt;
  bopt.max_batch = 8;
  bopt.max_wait = std::chrono::microseconds(50000);  // force size-triggered
  MicroBatcher batcher(engine, bopt);

  std::vector<std::future<QueryResult>> futs;
  for (size_t q = 0; q < f.queries.size(); ++q) {
    futs.push_back(batcher.Submit({f.queries[q], 10, 48}));
  }
  batcher.Flush();
  for (size_t q = 0; q < futs.size(); ++q) {
    EXPECT_EQ(futs[q].get().results,
              service.Search({f.queries[q], 10, 48}).results)
        << "query " << q;
  }
  EXPECT_EQ(batcher.queries_submitted(), f.queries.size());
  EXPECT_LE(batcher.batches_dispatched(), f.queries.size() / bopt.max_batch + 1);
}

TEST(MicroBatcherTest, TimerFlushesPartialBatch) {
  Fixture f = MakeFixture(400, 4);
  MemoryIndexService service(*f.index);
  ServingEngine engine(service, {1});
  BatcherOptions bopt;
  bopt.max_batch = 100;  // never filled
  bopt.max_wait = std::chrono::microseconds(2000);
  MicroBatcher batcher(engine, bopt);
  auto fut = batcher.Submit({f.queries[0], 5, 32});
  // No Flush: the deadline must dispatch the singleton batch.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(fut.get().results, service.Search({f.queries[0], 5, 32}).results);
}

// ------------------------------------------------------------- loadgen ----

TEST(LoadgenTest, SummarizeLatenciesPercentiles) {
  std::vector<double> lat;
  for (int i = 1; i <= 100; ++i) lat.push_back(i * 1e-3);  // 1..100 ms
  LatencySummary s = SummarizeLatencies(lat);
  EXPECT_NEAR(s.p50_ms, 50.0, 1.5);
  EXPECT_NEAR(s.p95_ms, 95.0, 1.5);
  EXPECT_NEAR(s.p99_ms, 99.0, 1.5);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_NEAR(s.mean_ms, 50.5, 1e-9);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms);
}

TEST(LoadgenTest, ClosedLoopCompletesAndAccounts) {
  Fixture f = MakeFixture(600, 16);
  MemoryIndexService service(*f.index);
  LoadgenOptions opt;
  opt.spec.beam_width = 32;
  opt.threads = 3;
  opt.total_queries = 200;
  LoadReport rep = RunClosedLoop(service, f.queries, opt);
  EXPECT_EQ(rep.completed, 200u);
  EXPECT_GT(rep.qps, 0.0);
  EXPECT_GT(rep.latency.p50_ms, 0.0);
  EXPECT_LE(rep.latency.p50_ms, rep.latency.p99_ms);
  EXPECT_GT(rep.mean_hops, 0.0);
}

TEST(LoadgenTest, OpenLoopCompletesAtOfferedRate) {
  Fixture f = MakeFixture(600, 16);
  MemoryIndexService service(*f.index);
  ServingEngine engine(service, {2});
  LoadgenOptions opt;
  opt.spec.beam_width = 32;
  opt.total_queries = 60;
  opt.arrival_qps = 3000;
  LoadReport rep = RunOpenLoop(engine, f.queries, opt);
  EXPECT_EQ(rep.completed, 60u);
  EXPECT_DOUBLE_EQ(rep.offered_qps, 3000.0);
  EXPECT_GT(rep.latency.p50_ms, 0.0);
}

// Every loadgen path delivers the spec template's knobs to the service
// unchanged: the closed loop, the open loop through ServingEngine::Submit,
// and the batched open loop through the MicroBatcher and SearchBatch.
TEST(LoadgenTest, SpecTemplateReachesTheService) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 100, 8, /*seed=*/5, &base, &queries);
  std::mutex mu;
  std::vector<QuerySpec> seen;
  FunctionService recorder([&](const QuerySpec& q) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(q);
    return QueryResult{};
  });
  ServingEngine engine(recorder, {2});
  LoadgenOptions opt;
  opt.spec.k = 7;
  opt.spec.beam_width = 24;
  opt.spec.rerank = 40;
  opt.spec.rerank_mode = refine::RerankMode::kExact;
  opt.spec.deadline_us = 5000;
  opt.threads = 2;
  opt.total_queries = 20;
  opt.arrival_qps = 5000;
  RunClosedLoop(recorder, queries, opt);
  RunOpenLoop(engine, queries, opt);
  opt.batch = 4;
  RunOpenLoop(engine, queries, opt);
  ASSERT_EQ(seen.size(), 60u);
  for (const QuerySpec& q : seen) {
    EXPECT_NE(q.query, nullptr);
    EXPECT_EQ(q.k, 7u);
    EXPECT_EQ(q.beam_width, 24u);
    EXPECT_EQ(q.rerank, 40u);
    EXPECT_EQ(q.rerank_mode, refine::RerankMode::kExact);
    EXPECT_EQ(q.deadline_us, 5000u);
  }
}

// ---------------------------------------------------- eval integration ----

TEST(ParallelSweepTest, ParallelReplayKeepsRecallIdentical) {
  Fixture f = MakeFixture(800, 16);
  auto gt = ComputeGroundTruth(f.base, f.queries, 10);
  std::atomic<size_t> calls{0};
  eval::SearchFn fn = [&](const float* q, size_t k, size_t beam) {
    calls.fetch_add(1, std::memory_order_relaxed);
    auto out = f.index->Search(q, k, {beam, k});
    eval::SearchOutcome o;
    o.results = std::move(out.results);
    o.hops = out.stats.hops;
    return o;
  };
  std::vector<size_t> beams{16, 48};
  auto serial = eval::SweepBeamWidths(fn, f.queries, gt, 10, beams, {1});
  size_t serial_calls = calls.exchange(0);
  auto parallel = eval::SweepBeamWidths(fn, f.queries, gt, 10, beams, {4});
  EXPECT_EQ(serial_calls, calls.load());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].recall, parallel[i].recall);
    EXPECT_DOUBLE_EQ(serial[i].mean_hops, parallel[i].mean_hops);
  }
}

// ------------------------------------------- streaming backend (c) -------

TEST(FreshVamanaServeTest, ReadersMakeProgressDuringMutation) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("ukbench", 800, 8, /*seed=*/21, &base,
                                &queries);
  graph::VamanaOptions vopt;
  vopt.degree = 12;
  vopt.build_beam = 24;
  graph::FreshVamanaIndex index(base.dim(), vopt);
  for (size_t i = 0; i < 300; ++i) index.Insert(base[i]);

  FreshVamanaService service(index);
  ServingEngine engine(service, {3});

  std::atomic<bool> done{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t q = t;
      while (!done.load(std::memory_order_acquire)) {
        auto r = service.Search({queries[q % queries.size()], 5, 32});
        if (!r.results.empty()) served.fetch_add(1);
        ++q;
      }
    });
  }

  // Writer: the full FreshDiskANN lifecycle while reads are in flight.
  for (size_t i = 300; i < 800; ++i) {
    index.Insert(base[i]);
    if (i % 50 == 0) index.Delete(static_cast<uint32_t>(i - 250));
    if (i % 250 == 0) index.Consolidate();
  }
  index.Consolidate();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_GT(served.load(), 0u);
  // Post-churn sanity: results are live and the engine path agrees with
  // direct search.
  auto direct = index.Search(queries[0], 10, 64);
  auto via = service.Search({queries[0], 10, 64});
  EXPECT_EQ(direct, via.results);
  for (const auto& nb : direct) EXPECT_FALSE(index.IsDeleted(nb.id));
}

// ------------------------------------------------------ IVF backend ------

// The IVF flat-scan backend behind the same serving interface: engine
// replay (parallel), micro-batched submission (which rides
// IvfIndex::SearchBatch and its multi-query LUT kernel), and direct index
// calls must all agree. A QuerySpec's beam_width carries nprobe for IVF.
TEST(IvfServiceTest, EngineAndBatcherMatchDirectSearch) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 1200, 10, /*seed=*/19, &base,
                                &queries);
  quant::PqOptions popt;
  popt.m = 8;
  popt.nbits = 4;
  popt.kmeans_iters = 3;
  auto pq = quant::PqQuantizer::Train(base, popt);
  ivf::IvfOptions iopt;
  iopt.nlist = 8;
  auto index = ivf::IvfIndex::Build(base, *pq, iopt);
  IvfService service(*index);

  const size_t k = 10, nprobe = 4;
  std::vector<std::vector<Neighbor>> direct(queries.size());
  ivf::IvfSearchOptions sopt;
  sopt.nprobe = nprobe;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto res = index->Search(queries[q], k, sopt);
    direct[q] = std::move(res.results);
  }

  ServingEngine engine(service, {3});
  auto via_engine = engine.SearchAll(queries, {nullptr, k, nprobe});
  ASSERT_EQ(via_engine.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(via_engine[q].results, direct[q]) << "q=" << q;
    EXPECT_EQ(via_engine[q].stats.hops, nprobe);  // lists probed
  }

  MicroBatcher batcher(engine, {4, std::chrono::microseconds(500)});
  std::vector<std::future<QueryResult>> futures;
  for (size_t q = 0; q < queries.size(); ++q) {
    futures.push_back(batcher.Submit({queries[q], k, nprobe}));
  }
  batcher.Flush();
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(futures[q].get().results, direct[q]) << "q=" << q;
  }
  EXPECT_EQ(batcher.queries_submitted(), queries.size());
}

}  // namespace
}  // namespace rpq::serve
