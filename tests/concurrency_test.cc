// Thread-safety regression tests for the raw index search paths: const
// Search must be callable from many threads with no shared mutable state
// (the historical bug was one shared `mutable VisitedTable` per index).
// These tests are the ones the ThreadSanitizer CI job exists to run — a
// reintroduced race shows up either as a TSan report or, with high
// probability, as corrupted visited bookkeeping breaking result equality.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/memory_index.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "graph/fresh_vamana.h"
#include "graph/hnsw.h"
#include "graph/vamana.h"
#include "quant/pq.h"
#include "serve/search_service.h"

namespace rpq {
namespace {

struct MemoryFixture {
  Dataset base, queries;
  graph::ProximityGraph graph;
  std::unique_ptr<quant::PqQuantizer> pq;
  std::unique_ptr<core::MemoryIndex> index;
};

MemoryFixture MakeMemoryFixture(size_t n = 1200, size_t nq = 24) {
  MemoryFixture f;
  synthetic::MakeBaseAndQueries("sift", n, nq, /*seed=*/11, &f.base,
                                &f.queries);
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

// N threads hammer one const MemoryIndex concurrently; every thread must
// reproduce the serial results exactly (and TSan must stay silent).
TEST(ConcurrencyTest, MemoryIndexConcurrentSearchMatchesSerial) {
  MemoryFixture f = MakeMemoryFixture();
  const graph::BeamSearchOptions opt{32, 10};

  std::vector<std::vector<Neighbor>> serial(f.queries.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    serial[q] = f.index->Search(f.queries[q], 10, opt).results;
  }

  constexpr size_t kThreads = 8;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        for (size_t q = 0; q < f.queries.size(); ++q) {
          auto res = f.index->Search(f.queries[q], 10, opt).results;
          if (res != serial[q]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ConcurrencyTest, MemoryIndexSearchBatchMatchesPerQuery) {
  MemoryFixture f = MakeMemoryFixture(800, 16);
  const graph::BeamSearchOptions opt{32, 10};
  std::vector<const float*> ptrs;
  for (size_t q = 0; q < f.queries.size(); ++q) ptrs.push_back(f.queries[q]);
  auto batched = f.index->SearchBatch(ptrs.data(), ptrs.size(), 10, opt);
  ASSERT_EQ(batched.size(), f.queries.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    EXPECT_EQ(batched[q].results, f.index->Search(f.queries[q], 10, opt).results)
        << "query " << q;
  }
}

TEST(ConcurrencyTest, DiskIndexConcurrentSearchMatchesSerial) {
  MemoryFixture f = MakeMemoryFixture(600, 12);
  auto disk = disk::DiskIndex::Build(f.base, f.graph, *f.pq);
  const graph::BeamSearchOptions opt{32, 10};

  std::vector<std::vector<Neighbor>> serial(f.queries.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    serial[q] = disk->Search(f.queries[q], 10, opt).results;
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (size_t q = 0; q < f.queries.size(); ++q) {
        auto res = disk->Search(f.queries[q], 10, opt).results;
        if (res != serial[q]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// HnswIndex::Search is const: concurrent callers must not share visited
// bookkeeping (each thread's table comes from thread-local storage), so
// every thread reproduces the serial results exactly.
TEST(ConcurrencyTest, HnswIndexConcurrentSearchMatchesSerial) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 3000, 64, /*seed=*/11, &base,
                                &queries);
  graph::HnswOptions hopt;
  hopt.m = 12;
  auto hnsw = graph::HnswIndex::Build(base, hopt);
  constexpr size_t kEf = 64;

  std::vector<std::vector<Neighbor>> serial(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    serial[q] = hnsw->Search(queries[q], 10, kEf);
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          if (hnsw->Search(queries[q], 10, kEf) != serial[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// Async disk path under concurrency: each query drives its own
// AsyncIoContext + prefetch cache over the shared const device, so in-flight
// wide waves with speculation from many threads must stay coherent
// (TSan-checked) and deterministic. Exercised through DiskIndexService so
// the serving path is the tested one.
TEST(ConcurrencyTest, DiskServiceConcurrentAsyncQueriesMatchSerial) {
  MemoryFixture f = MakeMemoryFixture(600, 12);
  disk::DiskIndexOptions dopt;
  dopt.ssd.queue_depth = 8;
  dopt.io_width = 8;
  dopt.readahead = 4;
  auto disk = disk::DiskIndex::Build(f.base, f.graph, *f.pq, dopt);
  serve::DiskIndexService service(*disk);
  const auto make_spec = [&](size_t q) {
    serve::QuerySpec spec;
    spec.query = f.queries[q];
    spec.k = 10;
    spec.beam_width = 32;
    return spec;
  };

  std::vector<std::vector<Neighbor>> serial(f.queries.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    serial[q] = service.Search(make_spec(q)).results;
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (size_t q = 0; q < f.queries.size(); ++q) {
        auto res = service.Search(make_spec(q)).results;
        if (res != serial[q]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// Readers search a FreshVamana index while one writer inserts and deletes;
// the shared-lock epochs must keep every read coherent (TSan-checked) and
// reads must keep completing throughout.
TEST(ConcurrencyTest, FreshVamanaReadersDuringWrites) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("ukbench", 900, 8, /*seed=*/3, &base,
                                &queries);
  graph::VamanaOptions vopt;
  vopt.degree = 12;
  vopt.build_beam = 24;
  graph::FreshVamanaIndex index(base.dim(), vopt);
  for (size_t i = 0; i < 400; ++i) index.Insert(base[i]);

  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t q = t;
      while (!done.load(std::memory_order_acquire)) {
        auto res = index.Search(queries[q % queries.size()], 5, 32);
        EXPECT_LE(res.size(), 5u);
        for (const auto& nb : res) {
          EXPECT_LT(nb.id, 900u);  // ids never exceed what was inserted
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  for (size_t i = 400; i < 900; ++i) {
    index.Insert(base[i]);
    if (i % 90 == 0) index.Delete(static_cast<uint32_t>(i / 2));
    if (i % 300 == 0) index.Consolidate();
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_GT(reads.load(), 0u);  // readers made progress during the writes
  // The index is intact afterwards: a search returns live vertices only.
  auto res = index.Search(queries[0], 10, 64);
  for (const auto& nb : res) EXPECT_FALSE(index.IsDeleted(nb.id));
}

}  // namespace
}  // namespace rpq
