// Closed-loop load generator of the repo benchmark.
//
// kClients threads each send their next operation only after the previous
// one returned. Every operation is timed on the client with steady_clock;
// nothing goes through rpq::serve::RunClosedLoop or the serving engine, so
// client latency is pure wall time (simulated device seconds are never
// added to it) and no queue sits between a client and the index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "serve/search_service.h"

namespace rpqbench {

/// Closed-loop client threads of every phase: fewer than the 4 cores of the
/// reference box, so the OS scheduler does not set the tail.
constexpr size_t kClients = 3;

/// One phase of client operations: searches only, or a search/insert mix
/// that ends once the insert pool is used up.
struct LoopOptions {
  double seconds = 1.0;  ///< phase length; a cap for an insert phase
  /// Every `insert_every`-th operation of a client is an insert of the next
  /// unclaimed pool row (0 = searches only). A client stops when it finds
  /// the pool used up, so every row is inserted exactly once.
  size_t insert_every = 0;
  size_t pool_size = 0;
  /// Attach a fresh rpq::obs::QueryTrace to every search and accumulate the
  /// stage totals and the client-side span around SearchService::Search.
  bool traced = false;
};

/// The workload side of the loop. `service` must be thread-safe; `check`
/// returns false when an answer is wrong; `insert` appends pool row p and
/// returns the id the index assigned.
struct LoopTarget {
  size_t num_queries = 0;
  std::function<rpq::serve::QuerySpec(size_t query)> spec;
  const rpq::serve::SearchService* service = nullptr;
  std::function<bool(size_t query, const rpq::serve::QueryResult&)> check;
  std::function<uint32_t(size_t pool_row)> insert;
};

/// What one phase measured.
struct LoopResult {
  double seconds = 0;               ///< wall length of the phase
  std::vector<double> search_ms;    ///< client latency per search
  std::vector<double> search_done_s;  ///< completion time, from phase start
  std::vector<double> insert_ms;    ///< client latency per insert
  size_t failed_searches = 0;
  /// Id assigned to each pool row inserted: rows are claimed in order, so
  /// they are [0, inserted_ids.size()).
  std::vector<uint32_t> inserted_ids;
  // Traced phases only: sums over all searches.
  double search_us_total = 0;       ///< span around SearchService::Search
  uint64_t stage_ns[rpq::obs::kNumStages] = {};

  size_t searches() const { return search_ms.size(); }
};

/// Runs one closed-loop phase.
LoopResult RunLoop(const LoopTarget& target, const LoopOptions& options);

/// Search throughput and latency of phases cut into whole windows of
/// `window_s` seconds (by completion time), each the median over the
/// windows of all `phases`, so a burst of interference shorter than half
/// the measured time cannot move them.
struct WindowedStats {
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  size_t windows = 0;
};
WindowedStats Windowed(const std::vector<LoopResult>& phases, double window_s);

/// Exact quantile (nearest-rank on a sorted copy); 0 for an empty set.
double Quantile(std::vector<double> values, double q);

/// Median of a small sample.
double Median(std::vector<double> values);

}  // namespace rpqbench
