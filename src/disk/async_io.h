// io_uring-shaped asynchronous submission/completion layer over the
// simulated SSD, plus the beam-guided readahead prefetch cache.
//
// Real DiskANN-style servers keep many NVMe reads in flight per query
// (libaio/io_uring at queue depth 8-32) so that traversal latency is
// dominated by the *slowest* read of each wave, not the sum. The simulator
// reproduces that structurally: callers enqueue reads with SubmitRead and
// drain them with PollCompletions, which performs the device reads in
// submission order (so the seeded fault schedule stays deterministic) and
// charges the wave's *overlapped* time
//
//     wave_seconds = max(max_i cost_i, sum_i cost_i / queue_depth)
//
// instead of `sum_i cost_i`. A wave of D uniform reads therefore costs
// ~max(latency, D*latency/QD); a single read costs exactly its serial
// latency, which is what keeps `io_width=1` bit-identical to the old
// synchronous path. Per-read faults (transient errors, latency spikes) keep
// firing per completion — an error surfaces in that completion's Status, a
// spike stretches that read's cost and hence possibly the whole wave.
//
// A read takes no buffer: its completion hands out the device's own block
// (SsdSimulator::ReadBlock), so the caller keeps a pointer, not a copy.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "disk/ssd_simulator.h"

namespace rpq::disk {

/// One finished read, reported by PollCompletions in submission order.
struct IoCompletion {
  uint32_t block = 0;      ///< block id that was read
  uint64_t user_data = 0;  ///< opaque tag passed to SubmitRead
  /// The block's bytes on the device (valid for the device's lifetime);
  /// null when the read failed.
  const uint8_t* data = nullptr;
  Status status;           ///< IOError on an injected transient failure
};

/// Submission/completion context bound to one device and one query.
/// Not thread-safe: each query drives its own context (the device itself is
/// shared and const, exactly as in DiskIndex::Search).
class AsyncIoContext {
 public:
  /// `queue_depth` is the number of reads the device serves concurrently
  /// (clamped to >= 1). Submission is unbounded — depth only shapes cost.
  AsyncIoContext(const SsdSimulator& ssd, size_t queue_depth);

  /// Enqueues a read of `block`; its completion carries the block's bytes.
  void SubmitRead(uint32_t block, uint64_t user_data);

  /// Performs every pending read, appends one IoCompletion per submission
  /// (in submission order) to `out` after clearing it, and folds the
  /// accounting into `stats`: reads/bytes/io_errors/latency_spikes per
  /// completion, plus ONE overlapped wave charge to `simulated_seconds` and
  /// an `io_waves` bump. Returns the number of completions.
  size_t PollCompletions(std::vector<IoCompletion>* out, IoStats* stats);

  size_t pending() const { return sq_.size(); }

 private:
  struct Sqe {
    uint32_t block;
    uint64_t user_data;
  };

  const SsdSimulator& ssd_;
  size_t queue_depth_;
  std::vector<Sqe> sq_;
};

/// Tiny FIFO cache for speculatively fetched blocks. The prefetcher submits
/// reads for next-best unexpanded beam candidates alongside each demand
/// wave; when the beam later expands one of them the block is already
/// resident and the expansion costs zero device time. A wrong guess is
/// evicted (and counted as wasted), never fatal. Entries are the blocks'
/// pointers from their completions, never copies.
class PrefetchCache {
 public:
  explicit PrefetchCache(size_t capacity) : capacity_(capacity) {}

  bool Contains(uint32_t block) const {
    return blocks_.find(block) != blocks_.end();
  }

  /// Removes `block` from the cache and returns its bytes; null on a miss.
  const uint8_t* Take(uint32_t block);

  /// Inserts a fetched block, evicting the oldest entry when full.
  void Insert(uint32_t block, const uint8_t* data);

 private:
  size_t capacity_;
  std::unordered_map<uint32_t, const uint8_t*> blocks_;
  std::deque<uint32_t> order_;  // FIFO eviction order
};

}  // namespace rpq::disk
