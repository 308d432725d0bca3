// DiskANN-style hybrid index (paper §7, "integration of RPQ for hybrid
// scenario"): compact codes + codebook stay in memory for ADC navigation;
// full vectors and adjacency live in (simulated) SSD blocks, one node per
// block. Each next-hop expansion costs one block read; exact distances from
// the fetched vectors re-rank the final answer, exactly as DiskANN does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/topk.h"
#include "data/dataset.h"
#include "disk/ssd_simulator.h"
#include "graph/beam_search.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "quant/fastscan.h"
#include "quant/quantizer.h"

namespace rpq::disk {

/// Hybrid index construction knobs.
struct DiskIndexOptions {
  SsdOptions ssd;
  /// Route with FastScan shuffle scans when the quantizer is 4-bit capable
  /// (K <= 16 and quant::FastScanCapable). Navigation only — results are
  /// still exact-reranked from the fetched full-precision vectors, so this
  /// changes hops, not the ranking rule of what is returned.
  bool fastscan = true;
  /// Async wave width: up to this many best unexpanded beam entries are
  /// drained per iteration and their block reads submitted together through
  /// AsyncIoContext, overlapping on the device up to `ssd.queue_depth`.
  /// io_width=1 (with readahead=0) reproduces the sequential path
  /// bit-for-bit — same hops, same results, same simulated time.
  size_t io_width = 1;
  /// Beam-guided readahead: alongside each demand wave, submit speculative
  /// reads for up to this many next-best unexpanded candidates (ranked by
  /// the same FastScan/ADC estimates that order the beam) into a small
  /// prefetch cache. A later expansion of a speculated block is a zero-cost
  /// hit; a wrong guess is counted (`IoStats::prefetch_wasted`), not fatal.
  /// 0 disables speculation.
  size_t readahead = 0;
};

/// Result of one hybrid query.
struct DiskSearchResult {
  std::vector<Neighbor> results;  ///< ascending by EXACT distance (reranked)
  /// hops == beam expansions; with readahead=0 also == block reads (each
  /// expansion is one demand read), while speculative readahead decouples
  /// the two (prefetch hits skip the read, wrong guesses add reads).
  graph::SearchStats stats;
  IoStats io;                     ///< simulated device accounting
  /// True when the answer is partial: the deadline fired mid-beam or a block
  /// stayed unreadable through all retries.
  bool degraded = false;
};

/// PQ-navigated, disk-resident graph index.
///
/// Search is const and thread-safe: the visited table comes from
/// thread-local storage and all other per-query state is stack-local, so
/// concurrent queries share only immutable index data (the SSD simulator's
/// IoStats are accumulated per-call, not on the device).
class DiskIndex {
 public:
  /// Lays out one block per node: [vector | degree | neighbor ids].
  /// `quantizer` is borrowed and must outlive the index.
  static std::unique_ptr<DiskIndex> Build(const Dataset& base,
                                          const graph::ProximityGraph& graph,
                                          const quant::VectorQuantizer& quantizer,
                                          const DiskIndexOptions& options = {});

  /// Beam search with ADC navigation + full-precision rerank, in waves of
  /// the build-time io_width with its readahead. `trace`, when set, receives
  /// per-stage spans (lut_build / beam / merge, plus the simulated device
  /// time as the io stage).
  DiskSearchResult Search(const float* query, size_t k,
                          const graph::BeamSearchOptions& options,
                          obs::QueryTrace* trace = nullptr) const;

  /// Bytes resident in memory: codes + codebook/transform model (+ packed
  /// FastScan neighbor blocks when routing with them).
  size_t MemoryBytes() const;
  /// Bytes on the simulated device.
  size_t DeviceBytes() const { return ssd_->DeviceBytes(); }
  size_t num_vertices() const { return num_vertices_; }
  uint32_t entry_point() const { return entry_; }
  /// True when queries navigate through the FastScan shuffle path.
  bool fastscan_routing() const { return fastscan_.has_value(); }

 private:
  DiskIndex(const quant::VectorQuantizer& quantizer) : quantizer_(quantizer) {}

  const quant::VectorQuantizer& quantizer_;
  size_t io_width_ = 1;
  size_t readahead_ = 0;
  std::unique_ptr<SsdSimulator> ssd_;
  std::vector<uint8_t> codes_;  // in-memory compact codes, n * code_size
  std::optional<quant::PackedNeighborBlocks> fastscan_;
  size_t num_vertices_ = 0;
  size_t dim_ = 0;
  size_t max_degree_ = 0;
  uint32_t entry_ = 0;
};

}  // namespace rpq::disk
