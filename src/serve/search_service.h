// Query-serving abstraction: every index backend (in-memory ADC, hybrid
// disk, streaming FreshVamana, exact reference) presents the same
// SearchService interface, and everything above it — the serving engine, the
// shard fan-out, the micro-batcher, the load generator — is written once
// against that interface.
//
// The contract that makes the whole subsystem work: Search()/SearchBatch()
// are const AND thread-safe. Backends keep per-query scratch on the stack or
// in thread-local storage (graph::TlsVisitedTable); FreshVamanaService
// additionally rides FreshVamanaIndex's shared-lock epochs so readers stay
// wait-free with respect to each other during streaming updates.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/topk.h"
#include "core/memory_index.h"
#include "data/dataset.h"
#include "disk/disk_index.h"
#include "graph/fresh_vamana.h"

namespace rpq::serve {

/// One query as the serving layer sees it (the batcher groups these).
struct QuerySpec {
  const float* query = nullptr;
  size_t k = 10;
  size_t beam_width = 64;  ///< beam for graph backends, nprobe for IVF
  /// Refinement request (width + stage), forwarded to backends with a
  /// rerank epilogue (memory, IVF); width 0 defers to the auto rule (or
  /// IvfService's default width), kAuto to exact when the backend stores
  /// raw rows, float-ADC otherwise. Memory runs the epilogue in every
  /// distance mode: always for FastScan, and for ADC and SDC only when
  /// rerank_mode names a stage. Other backends ignore it.
  size_t rerank = 0;
  refine::RerankMode rerank_mode = refine::RerankMode::kAuto;
  /// When set, receives per-stage spans for this query (obs/trace.h). The
  /// pointee must outlive the query; batched execution accumulates a whole
  /// batch's spans into each query's trace only when they share one.
  obs::QueryTrace* trace = nullptr;
  /// Per-query latency budget in microseconds (0 = none). Backends check it
  /// at stage boundaries (per beam hop / probed cell) and return the best
  /// partial answer found so far with QueryResult::degraded set — a late
  /// query is truncated, never blocked on.
  uint64_t deadline_us = 0;
};

/// What one served query returned, plus its costs.
struct QueryResult {
  std::vector<Neighbor> results;       ///< ascending by (distance, id)
  graph::SearchStats stats;
  double simulated_io_seconds = 0.0;   ///< hybrid-disk backends only
  /// The answer is partial or approximate beyond the configured knobs: the
  /// deadline fired, a block stayed unreadable, a shard was lost, or the
  /// engine shed the query outright.
  bool degraded = false;
  bool deadline_exceeded = false;  ///< a stage stopped at the deadline
  bool shed = false;               ///< refused by admission control (empty)
  uint32_t shards_lost = 0;        ///< fan-out shards that missed the merge
  bool hedged = false;             ///< a hedge request was issued
};

/// Builds the value-type deadline a backend threads through its stages.
inline Deadline DeadlineFor(const QuerySpec& q) {
  return Deadline::AfterMicros(q.deadline_us);
}

/// Folds SearchStats::deadline_hit into the result's degradation flags and
/// the serve.deadline_exceeded counter; every service funnels through this
/// after its index-level search returns.
void NoteDeadline(QueryResult* r);

/// Splits qs[0, n) into maximal runs that agree on every per-query knob
/// (k, beam_width, rerank, rerank_mode, deadline_us) and calls
/// `serve_run(first, queries)` once per run, with `first` the run's offset in
/// qs and `queries` its query pointers. Index batch paths amortize only
/// across such runs (batcher batches almost always are one).
void ForEachUniformRun(
    const QuerySpec* qs, size_t n,
    const std::function<void(size_t first,
                             const std::vector<const float*>& queries)>&
        serve_run);

/// Thread-safe search front end over one index backend.
class SearchService {
 public:
  virtual ~SearchService() = default;

  /// Serves one query. Must be safe to call from any number of threads.
  virtual QueryResult Search(const QuerySpec& q) const = 0;

  /// Serves a batch back-to-back on the calling thread. Backends override
  /// this when consecutive queries share amortizable work (ADC table
  /// builds, cache-resident codebooks); results must match per-query Search.
  virtual void SearchBatch(const QuerySpec* qs, size_t n,
                           QueryResult* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = Search(qs[i]);
  }
};

/// In-memory ADC/SDC/FastScan backend (core::MemoryIndex is borrowed).
class MemoryIndexService : public SearchService {
 public:
  explicit MemoryIndexService(const core::MemoryIndex& index,
                              core::DistanceMode mode = core::DistanceMode::kAdc)
      : index_(index), mode_(mode) {}

  QueryResult Search(const QuerySpec& q) const override;
  void SearchBatch(const QuerySpec* qs, size_t n,
                   QueryResult* out) const override;

 private:
  /// The query's refinement request, with stages the index cannot serve
  /// degraded to kAuto (bad per-query knobs must not abort the server).
  refine::RerankSpec SpecFor(const QuerySpec& q) const;

  const core::MemoryIndex& index_;
  core::DistanceMode mode_;
};

/// Hybrid disk backend (disk::DiskIndex is borrowed).
class DiskIndexService : public SearchService {
 public:
  explicit DiskIndexService(const disk::DiskIndex& index) : index_(index) {}

  QueryResult Search(const QuerySpec& q) const override;

 private:
  const disk::DiskIndex& index_;
};

/// Streaming backend: reads coordinate with Insert/Delete/Consolidate via
/// the index's internal shared-lock epochs (the index is borrowed).
class FreshVamanaService : public SearchService {
 public:
  explicit FreshVamanaService(const graph::FreshVamanaIndex& index)
      : index_(index) {}

  QueryResult Search(const QuerySpec& q) const override;

 private:
  const graph::FreshVamanaIndex& index_;
};

/// Brute-force exact scan over a borrowed dataset; the reference backend for
/// merge/equality tests and tiny deployments.
class ExactService : public SearchService {
 public:
  explicit ExactService(const Dataset& data) : data_(data) {}

  QueryResult Search(const QuerySpec& q) const override;

 private:
  const Dataset& data_;
};

/// Serves queries with an arbitrary thread-safe callable: the test double
/// that records or delays what the engine, loadgen and sweep send it.
class FunctionService : public SearchService {
 public:
  using Fn = std::function<QueryResult(const QuerySpec&)>;
  explicit FunctionService(Fn fn) : fn_(std::move(fn)) {}

  QueryResult Search(const QuerySpec& q) const override { return fn_(q); }

 private:
  Fn fn_;
};

}  // namespace rpq::serve
