// Simulated SSD backing store.
//
// The paper's hybrid scenario (DiskANN [36]) keeps the PG and full vectors on
// an NVMe drive and pays one 4 KiB-sector read per visited node. This offline
// build has no dedicated NVMe device, so we substitute a deterministic block
// store: node blocks live in a flat byte arena, every read is counted, and a
// configurable per-read latency (default 100 us, typical of NVMe random
// reads) is added to the query's simulated clock. QPS and "Disk I/O time"
// reported by the benches therefore reproduce the structural trade-off
// (reads x latency) that drives Figure 5. See DESIGN.md §3.
//
// A read hands out the device's own block: the arena is written only while
// the index is built, so ReadBlock charges the read and returns a pointer
// into the arena instead of copying the block out. The cost is paid once,
// in simulated time.
//
// Fault model: real NVMe devices exhibit transient read failures (media
// errors that succeed on retry) and tail-latency spikes (GC pauses, write
// stalls). Both are reproduced here behind seeded knobs —
// `transient_error_rate` makes ReadBlock return an IOError Status, and
// `latency_spike_rate`/`latency_spike_multiplier` multiply one read's
// simulated cost. Decisions come from a deterministic fault::Injector so a
// given (seed, read index) schedule replays exactly; the effective rates are
// the max of the device's own knobs and the process-wide RPQ_FAULTS plan.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"

namespace rpq::disk {

/// I/O accounting for one query or one experiment.
struct IoStats {
  size_t reads = 0;              ///< block reads issued (successful)
  size_t bytes = 0;              ///< bytes transferred
  double simulated_seconds = 0;  ///< overlapped device time (see AsyncIoContext)
  size_t io_errors = 0;          ///< transient read failures observed
  size_t retries = 0;            ///< re-issued reads after a transient error
  size_t latency_spikes = 0;     ///< reads that hit an injected tail spike
  size_t io_waves = 0;           ///< async submission waves polled
  size_t prefetch_issued = 0;    ///< speculative readahead reads submitted
  size_t prefetch_hits = 0;      ///< expansions served from the prefetch cache
  size_t prefetch_wasted = 0;    ///< speculated blocks never consumed
};

/// Configuration of the simulated device.
struct SsdOptions {
  size_t sector_bytes = 4096;        ///< read granularity
  double read_latency_seconds = 1e-4;///< fixed cost per random read (100 us)
  double bandwidth_bytes_per_s = 2e9;///< sequential throughput component
  double transient_error_rate = 0;   ///< P(read returns IOError) in [0,1]
  double latency_spike_rate = 0;     ///< P(read costs multiplier x) in [0,1]
  double latency_spike_multiplier = 20;  ///< spike cost factor (~2 ms @ 100 us)
  uint64_t fault_seed = 1;           ///< seed for the device's injector
  /// Reads the device serves concurrently: an async wave of D submissions
  /// charges max(slowest read, serial_sum / queue_depth) of simulated time
  /// (disk/async_io.h). Purely a device property — single-read waves cost
  /// their serial latency regardless, so it cannot change sync-path timing.
  size_t queue_depth = 8;
};

/// Flat block device: fixed-size node blocks, counted sector reads.
class SsdSimulator {
 public:
  /// `block_bytes` is rounded up to whole sectors (DiskANN packs one node —
  /// vector + adjacency — per sector when it fits).
  SsdSimulator(size_t num_blocks, size_t block_bytes, const SsdOptions& options);

  size_t num_blocks() const { return num_blocks_; }
  size_t block_bytes() const { return block_bytes_; }
  size_t sectors_per_block() const { return sectors_per_block_; }

  /// Writes a full block (construction time, not counted as query I/O).
  void WriteBlock(size_t block_id, const void* data, size_t size);

  /// Reads a full block, charging latency and bandwidth to `stats`, and
  /// returns the block's block_bytes() bytes in the device arena, valid for
  /// the simulator's lifetime. Returns IOError on an injected transient
  /// failure — the failed attempt's latency is still charged (the device was
  /// busy), and `stats->io_errors` bumps; callers retry at their own policy,
  /// counting `stats->retries`.
  Result<const uint8_t*> ReadBlock(size_t block_id, IoStats* stats) const;

  /// Total bytes the simulated device occupies.
  size_t DeviceBytes() const { return arena_.size(); }

  /// The device's configuration (queue depth, latency, fault knobs).
  const SsdOptions& options() const { return opt_; }

 private:
  size_t num_blocks_;
  size_t block_bytes_;   // rounded to sector multiple
  size_t sectors_per_block_;
  SsdOptions opt_;
  std::vector<uint8_t> arena_;
  // Mutable: ReadBlock is logically const (device state is immutable); the
  // injector only advances its atomic roll counters.
  mutable fault::Injector injector_;
};

}  // namespace rpq::disk
