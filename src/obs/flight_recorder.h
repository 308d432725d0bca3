// Slow-query flight recorder: a bounded ring of the most recent *noteworthy*
// completed queries — slow ones, degraded ones, or a 1-in-N sample — each
// carrying its latency, its degradation flags, and the per-stage span
// breakdown when the query carried a trace. "Why was that query slow" then
// has an answer after the fact, over the wire (`/slow` on the HTTP
// exporter), without logging every query.
//
// Cost model: the hot path is the admission decision — one relaxed enabled
// load, a latency/flag compare, and (only when 1-in-N sampling is on) one
// shared counter increment. Queries that do not pass admission touch nothing
// else. Admitted queries take a mutex to claim+fill a ring slot; admission is
// policy-rare (slow or degraded), so the lock is off the common path by
// construction, and Dump() takes the same mutex for a consistent read while
// writers keep recording (tests/obs_test.cc runs this under TSan).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace rpq::obs {

struct FlightRecorderOptions {
  size_t capacity = 256;      ///< ring slots (oldest evicted first)
  /// Admit when served latency >= this (microseconds); 0 disables the
  /// latency criterion. Every query that degraded (deadline hit, shed, shard
  /// loss, hedge) is admitted regardless.
  uint64_t slow_us = 0;
  /// Admit an unconditional 1-in-N sample of all queries (0 = off); gives
  /// /slow a healthy-baseline row to compare the outliers against.
  uint32_t sample_every = 0;
};

/// One recorded query.
struct FlightRecord {
  uint64_t seq = 0;        ///< admission order, monotonic from Configure()
  double t_seconds = 0;    ///< completion time, seconds since Configure()
  uint64_t latency_us = 0;
  uint32_t k = 0;
  uint32_t width = 0;      ///< beam width (nprobe for IVF)
  bool degraded = false;
  bool deadline_exceeded = false;
  bool shed = false;
  bool hedged = false;
  uint32_t shards_lost = 0;
  /// Why it was admitted: "slow", "degraded", or "sample".
  const char* reason = "";
  /// Per-stage span nanos (zeros when the query carried no trace).
  std::array<uint64_t, kNumStages> stage_nanos{};
};

/// Everything the recorder needs to know about one completed query; the
/// serving layer fills this from its QuerySpec/QueryResult pair (obs cannot
/// name those types — serve/ depends on obs/, not the reverse).
struct QueryObservation {
  uint64_t latency_us = 0;
  uint32_t k = 0;
  uint32_t width = 0;
  bool degraded = false;
  bool deadline_exceeded = false;
  bool shed = false;
  bool hedged = false;
  uint32_t shards_lost = 0;
  const QueryTrace* trace = nullptr;  ///< optional stage breakdown
};

class FlightRecorder {
 public:
  FlightRecorder() { Configure({}); }

  /// Installs a policy and clears the ring; also the reset used by tests.
  void Configure(const FlightRecorderOptions& options);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Hot-path entry: applies the admission policy and records the query when
  /// it qualifies. No-op (no lock) when disabled or not admitted.
  void Observe(const QueryObservation& obs);

  /// Consistent copy of the ring, oldest admitted first. Safe to call while
  /// writers keep recording.
  std::vector<FlightRecord> Dump() const;

  /// Dump() as a stable JSON document:
  ///   { "version": 1, "observed": u64, "recorded": u64, "capacity": u64,
  ///     "records": [ { "seq": .., "latency_us": .., "reason": "slow",
  ///                    "stages": {"beam_ns": ..}, ... } ] }
  /// Only non-zero stages are listed per record.
  std::string DumpJson() const;

  /// Queries seen / admitted since Configure().
  uint64_t observed() const { return observed_.load(std::memory_order_relaxed); }
  uint64_t recorded() const;

  FlightRecorderOptions options() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> observed_{0};
  std::atomic<uint64_t> sample_clock_{0};  ///< 1-in-N admission counter

  mutable std::mutex mu_;
  FlightRecorderOptions options_;  // guarded by mu_ after Configure
  std::vector<FlightRecord> ring_; // guarded by mu_
  uint64_t next_seq_ = 0;          // guarded by mu_
  // Policy fields mirrored into atomics so the unlocked admission check
  // reads a coherent policy without taking mu_.
  std::atomic<uint64_t> slow_us_{0};
  std::atomic<uint32_t> sample_every_{0};
  Timer since_;  ///< completion timestamps are relative to Configure()
};

/// The process-wide recorder the serving layer feeds (mirrors the global
/// metrics registry: default disabled, enabled by serve-bench --stats-port /
/// --slow-us or tests).
FlightRecorder& GlobalFlightRecorder();

}  // namespace rpq::obs
