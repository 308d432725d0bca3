// Load generator for the serving subsystem.
//
// Two standard modes:
//  - Closed loop: T client threads each issue queries back-to-back; measures
//    saturated throughput and service latency (no queueing).
//  - Open loop: queries arrive on a Poisson schedule independent of
//    completions and run through a ServingEngine; measured latency
//    includes queueing delay, so it shows what a target arrival rate
//    actually costs — the honest way to report p99 under load.
// Every latency and QPS here is wall clock. A disk backend's simulated
// device time stays in its QueryResult (rpq_tool prints it on its own
// `disk-io us/query` line); no report adds it in.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/engine.h"

namespace rpq::serve {

/// Latency distribution summary, in milliseconds.
struct LatencySummary {
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Computes the summary from raw per-query latencies (seconds) — the exact
/// (sorted-vector) reference. The load generators no longer retain samples;
/// this stays for callers that do, and as the reference the histogram
/// summary is tested against.
LatencySummary SummarizeLatencies(std::vector<double> seconds);

/// Computes the summary from a latency histogram in NANOSECONDS (what the
/// load generators accumulate — bounded memory regardless of run length).
/// mean/max are exact; percentiles are within one bucket width (~12.5%) of
/// SummarizeLatencies on the same samples.
LatencySummary SummarizeHistogramNanos(const obs::HistogramData& hist);

struct LoadgenOptions {
  /// Every issued query's knobs (k, beam_width, rerank, rerank_mode,
  /// deadline_us) as they reach the service; `query` is replaced by each
  /// query-set row, and `trace` must stay null (a trace is per query).
  QuerySpec spec;
  size_t threads = 4;        ///< closed loop: client threads
  size_t total_queries = 0;  ///< 0 = one pass over the query set
  double arrival_qps = 0;    ///< open loop: target arrival rate (required)
  /// Open loop: > 1 routes arrivals through a MicroBatcher of this max batch
  /// size, whose batches take the engine's admission path like single
  /// submissions (occupancy shows up in the serve.batch_occupancy metric).
  /// 0/1 = unbatched.
  size_t batch = 0;
  uint64_t seed = 42;
};

struct LoadReport {
  size_t completed = 0;
  double wall_seconds = 0;
  double qps = 0;              ///< completed / wall
  double offered_qps = 0;      ///< open loop: the arrival rate requested
  LatencySummary latency;
  double mean_hops = 0;
  /// Degradation tallies (QueryResult flags, counted per query). `completed`
  /// counts every query INCLUDING shed ones — answered = completed - shed.
  /// Shed queries are excluded from the latency summary (nothing was served).
  size_t degraded = 0;           ///< any degradation flag set
  size_t shed = 0;               ///< refused by admission control
  size_t deadline_exceeded = 0;  ///< truncated at the deadline
  size_t hedged = 0;             ///< queries that issued a hedge request
  size_t shards_lost = 0;        ///< summed across queries (fan-out merges)
};

/// Closed loop: `threads` clients issue queries round-robin from `queries`
/// until `total_queries` completions. Per-query latency is service time;
/// each query is recorded through ObserveQuery, as the engine records its
/// own.
LoadReport RunClosedLoop(const SearchService& service, const Dataset& queries,
                         const LoadgenOptions& options);

/// Open loop: submits queries to the engine on the arrival schedule and
/// waits for all completions. Latency is arrival-to-completion (queueing
/// included). `options.arrival_qps` must be > 0.
LoadReport RunOpenLoop(const ServingEngine& engine, const Dataset& queries,
                       const LoadgenOptions& options);

/// Prints a report as one aligned row (label as the prefix).
void PrintReport(const char* label, const LoadReport& report);

}  // namespace rpq::serve
