// Sharded serving: the dataset is partitioned across S independent shards,
// each with its own graph + codes; a query fans out to every shard and the
// per-shard top-k lists are merged by (distance, global id). Because
// Neighbor ordering is a strict total order on (dist, id) and shard-local
// results are each sorted under it, the merge is deterministic and — for
// exact backends — bit-identical to searching one unsharded index, ties and
// duplicate vectors included (tests/serve_test.cc pins this).
//
// Shards are plain SearchServices, so shard trees compose: a shard can
// itself be sharded, remote (one day), or a different backend per tier.
#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "graph/vamana.h"
#include "serve/search_service.h"

namespace rpq::serve {

/// One shard: a borrowed backend plus the mapping from its local vertex ids
/// to global dataset ids (empty mapping = ids are already global).
struct Shard {
  const SearchService* service = nullptr;
  std::vector<uint32_t> global_ids;
  /// Optional hedge target covering the same rows (same global_ids space).
  /// In-process deployments may point it at `service` itself: injected
  /// stalls are per-call, so a second request to the same backend is a
  /// meaningful hedge against them.
  const SearchService* replica = nullptr;
};

/// Shard fan-out knobs.
struct ShardedOptions {
  /// Search the shards of ONE query concurrently on the process-wide
  /// SharedPool() instead of sequentially on the calling thread (serving-v2
  /// latency lever: worker parallelism is across queries, this adds
  /// parallelism within one). Results are merged in shard order after all
  /// shards finish, so the deterministic (dist, global id) merge — and its
  /// bit-equality to the serial fan-out — is preserved. Calls arriving ON a
  /// SharedPool() worker (query handlers submitted to it, a nested sharded
  /// tree) detect that and fall back to the serial fan-out instead of
  /// deadlocking.
  bool parallel_shards = false;
  /// Per-query cap on how long the parallel fan-out waits for its shards,
  /// measured from fan-out start (0 = wait for every shard). Shards that
  /// miss the cap are abandoned: the query returns a partial merge with
  /// QueryResult::shards_lost set (and serve.shard_lost bumped) instead of
  /// blocking on a stalled shard. Requires parallel_shards.
  uint64_t shard_timeout_us = 0;
  /// Hedging: when > 0 and a shard has not answered after this delay, a
  /// second request is sent to its `replica` (if any); whichever copy
  /// answers first wins, the loser's result is discarded. Requires
  /// parallel_shards.
  uint64_t hedge_delay_us = 0;
  /// How long an injected fault::Point::kShardStall stalls a shard request
  /// (the fault fires per primary request, never on hedges).
  uint64_t injected_stall_us = 2000;
};

/// Fans each query out to every shard and merges top-k. Thread-safe exactly
/// when every shard backend is.
class ShardedService : public SearchService {
 public:
  explicit ShardedService(std::vector<Shard> shards,
                          const ShardedOptions& options = {})
      : shards_(std::move(shards)), options_(options) {}

  /// Drains the fan-out pool: a timed-out query abandons its shard tasks,
  /// which stay queued/running past the query's return while holding
  /// pointers to the shard backends — those must finish before the
  /// deployment that owns the backends is torn down.
  ~ShardedService() override;

  size_t num_shards() const { return shards_.size(); }
  const ShardedOptions& options() const { return options_; }

  QueryResult Search(const QuerySpec& q) const override;

 private:
  /// Deterministic (dist, global id) merge over the shards marked present;
  /// absent shards count into QueryResult::shards_lost and degrade the
  /// answer instead of failing it.
  QueryResult Merge(const QuerySpec& q, std::vector<QueryResult>& per,
                    const std::vector<uint8_t>& present) const;

  /// Fan-out with per-shard timeout + hedging (parallel_shards deployments
  /// with shard_timeout_us/hedge_delay_us set).
  QueryResult SearchFaultTolerant(const QuerySpec& q, ThreadPool* pool) const;

  std::vector<Shard> shards_;
  ShardedOptions options_;
};

/// Everything one in-memory shard owns (the index borrows graph+quantizer,
/// so the bundle keeps them alive at stable addresses). The local->global
/// id map lives in the composed ShardedService's Shard entries.
struct MemoryShard {
  Dataset base;  ///< this shard's rows (contiguous slice of the corpus)
  graph::ProximityGraph graph;
  std::unique_ptr<core::MemoryIndex> index;
  std::unique_ptr<MemoryIndexService> service;
};

/// A fully built S-shard in-memory deployment over one shared quantizer.
struct ShardedMemoryIndex {
  std::vector<std::unique_ptr<MemoryShard>> shards;
  std::unique_ptr<ShardedService> service;  ///< the composed front end

  size_t MemoryBytes() const;
};

/// Partitions `base` into `num_shards` contiguous slices, builds a Vamana
/// graph and codes per shard (the quantizer — trained on the full corpus —
/// is shared and must outlive the result).
ShardedMemoryIndex BuildShardedMemoryIndex(
    const Dataset& base, const quant::VectorQuantizer& quantizer,
    size_t num_shards, const graph::VamanaOptions& vamana_options = {},
    const ShardedOptions& sharded_options = {});

}  // namespace rpq::serve
