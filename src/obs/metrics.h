// Lock-free metrics registry: named monotonic counters and fixed-bucket
// log2 latency histograms, sharded per thread.
//
// Hot-path contract: Add()/Record() touch ONLY the calling thread's shard —
// one relaxed atomic load+store per counter, a handful for a histogram
// sample. No shared cacheline is written, no lock is taken, so instrumented
// search paths scale exactly as uninstrumented ones do. Snapshot() merges
// the live shards (plus the folded-in shards of exited threads) under the
// registration mutex and returns a consistent monotonic view: every value in
// it was true at some point during the call, and values never go backwards
// across snapshots.
//
// Metric identities are (name -> id) registered once and cached by callers;
// registration is idempotent, so two subsystems naming the same counter
// share it. Ids index fixed-capacity per-thread arrays — a registration past
// the capacity is a programming error and fails loudly.
//
// Recording is gated process-wide by MetricsEnabled() (default off, or
// RPQ_METRICS=1): with it off the instrumented paths pay one relaxed atomic
// bool load per query, nothing else.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace rpq::obs {

// ---------------------------------------------------------------------------
// Histogram geometry: log2 octaves with 8 linear sub-buckets each (values
// 0..7 are exact). Bucket width is ~12.5% of the value, so a histogram-
// derived percentile is always within one bucket width of the exact one.
// Shared by the registry shards and the standalone HistogramData value type.

inline constexpr uint32_t kSubBucketBits = 3;
inline constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 8
inline constexpr uint32_t kNumBuckets =
    (64 - kSubBucketBits) * kSubBuckets + kSubBuckets;  // 496

/// Bucket holding `v`. Values below kSubBuckets map to themselves.
inline uint32_t BucketIndexFor(uint64_t v) {
  if (v < kSubBuckets) return static_cast<uint32_t>(v);
  const uint32_t msb = 63 - static_cast<uint32_t>(__builtin_clzll(v));
  const uint32_t octave = msb - kSubBucketBits;  // 0 for v in [8, 15]
  const uint32_t sub =
      static_cast<uint32_t>((v >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  return (octave << kSubBucketBits) + kSubBuckets + sub;
}

/// Smallest value in bucket `i` (inverse of BucketIndexFor).
inline uint64_t BucketLowerBound(uint32_t i) {
  if (i < kSubBuckets) return i;
  const uint32_t octave = (i - kSubBuckets) >> kSubBucketBits;
  const uint32_t sub = (i - kSubBuckets) & (kSubBuckets - 1);
  return static_cast<uint64_t>(kSubBuckets + sub) << octave;
}

/// Count of distinct values bucket `i` covers (1 for the exact range).
inline uint64_t BucketWidth(uint32_t i) {
  if (i < kSubBuckets) return 1;
  return uint64_t{1} << ((i - kSubBuckets) >> kSubBucketBits);
}

/// Plain (single-threaded) histogram value type: what a snapshot hands back,
/// and what call sites that keep thread-local tallies (the load generator's
/// client side) accumulate. count/sum/max are exact; percentiles are
/// bucket-resolution (see BucketWidth).
struct HistogramData {
  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  void Record(uint64_t v) {
    ++buckets[BucketIndexFor(v)];
    ++count;
    sum += v;
    if (v > max) max = v;
  }
  void Merge(const HistogramData& other);

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / count : 0.0;
  }
  /// Value at quantile p in [0, 1]: the midpoint of the bucket holding the
  /// rank-p sample (rank rule matches serve::SummarizeLatencies), clamped to
  /// the exact max. Within one bucket width of the exact percentile.
  double Percentile(double p) const;
};

// ---------------------------------------------------------------------------

using CounterId = uint32_t;
using HistogramId = uint32_t;

inline constexpr size_t kMaxCounters = 256;
inline constexpr size_t kMaxHistograms = 64;

/// True when Add()/Record() actually record. Default: off, unless the
/// RPQ_METRICS environment variable is a nonempty value other than "0".
bool MetricsEnabled();
/// Flips recording on/off process-wide (serve-bench --metrics-json, tests).
void SetMetricsEnabled(bool enabled);

/// Registers (or finds) the counter/histogram with `name`. Cache the id —
/// registration takes a mutex; Add/Record do not.
CounterId GetCounter(const std::string& name);
HistogramId GetHistogram(const std::string& name);

/// Adds to this thread's shard of the counter. No-op when metrics are off.
void Add(CounterId id, uint64_t delta);
/// Records one histogram sample into this thread's shard. No-op when off.
void Record(HistogramId id, uint64_t value);

/// One counter / histogram in a snapshot, in registration order.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};
struct HistogramSnapshot {
  std::string name;
  HistogramData data;
};

/// Point-in-time merged view of every shard. Values are monotonic across
/// snapshots; a snapshot taken while writers run is internally consistent
/// (each value was current at some moment during the call).
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Lookup by exact name; nullptr when absent.
  const CounterSnapshot* FindCounter(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

Snapshot TakeSnapshot();

/// Serializes a snapshot as the stable JSON schema documented in the README:
///   { "version": 1,
///     "counters": { "<name>": <u64>, ... },
///     "histograms": { "<name>": { "count": u64, "sum": u64, "max": u64,
///                                 "mean": f, "p50": f, "p95": f, "p99": f,
///                                 "buckets": [[lo, width, count], ...] } } }
/// Only non-empty buckets are listed. Keys are in registration order.
std::string DumpJson(const Snapshot& snapshot);
std::string DumpJson();  ///< TakeSnapshot() + DumpJson

}  // namespace rpq::obs
