#include "disk/disk_index.h"

#include <algorithm>
#include <cstring>

#include "common/distance.h"
#include "common/logging.h"
#include "disk/async_io.h"
#include "quant/adc.h"
#include "refine/refine.h"

namespace rpq::disk {
namespace {

// Node block layout: dim floats, then uint32 degree, then degree uint32 ids.
size_t BlockPayloadBytes(size_t dim, size_t degree) {
  return dim * sizeof(float) + sizeof(uint32_t) + degree * sizeof(uint32_t);
}

// Transient read failures are retried up to this many times before the hop
// is abandoned (the node is skipped and traversal continues through the rest
// of the beam: a lost block degrades recall, never correctness).
constexpr size_t kMaxReadRetries = 3;
// Simulated backoff charged per retry, on top of the failed attempt's device
// time (both land in the io stage).
constexpr double kRetryBackoffSeconds = 50e-6;

// One slot of the in-flight demand wave: the vertex and its block on the
// device, null until a read of it succeeds.
struct WaveSlot {
  uint32_t id = 0;
  const uint8_t* data = nullptr;
};

// Completion tags: demand reads carry their wave-slot index; speculative
// readahead reads are tagged with kSpecTag so the two never collide.
constexpr uint64_t kSpecTag = uint64_t{1} << 32;

}  // namespace

std::unique_ptr<DiskIndex> DiskIndex::Build(
    const Dataset& base, const graph::ProximityGraph& graph,
    const quant::VectorQuantizer& quantizer, const DiskIndexOptions& options) {
  RPQ_CHECK_EQ(base.size(), graph.num_vertices());
  auto index = std::unique_ptr<DiskIndex>(new DiskIndex(quantizer));
  index->num_vertices_ = base.size();
  index->dim_ = base.dim();
  index->entry_ = graph.entry_point();

  size_t max_degree = 0;
  for (uint32_t v = 0; v < base.size(); ++v) {
    max_degree = std::max(max_degree, graph.Neighbors(v).size());
  }
  index->max_degree_ = max_degree;

  index->ssd_ = std::make_unique<SsdSimulator>(
      base.size(), BlockPayloadBytes(base.dim(), max_degree), options.ssd);
  // Search reads each block in place as floats and uint32 ids, so every
  // block must start on a 4-byte boundary of the device arena.
  RPQ_CHECK_EQ(index->ssd_->block_bytes() % alignof(float), 0u);
  index->io_width_ = std::max<size_t>(1, options.io_width);
  index->readahead_ = options.readahead;

  std::vector<uint8_t> block(index->ssd_->block_bytes(), 0);
  for (uint32_t v = 0; v < base.size(); ++v) {
    uint8_t* p = block.data();
    std::memcpy(p, base[v], base.dim() * sizeof(float));
    p += base.dim() * sizeof(float);
    const auto& nb = graph.Neighbors(v);
    uint32_t deg = static_cast<uint32_t>(nb.size());
    std::memcpy(p, &deg, sizeof(deg));
    p += sizeof(deg);
    if (deg > 0) std::memcpy(p, nb.data(), deg * sizeof(uint32_t));
    index->ssd_->WriteBlock(v, block.data(),
                            BlockPayloadBytes(base.dim(), deg));
  }

  index->codes_ = quantizer.EncodeDataset(base);
  if (options.fastscan && quantizer.num_centroids() <= 16 &&
      quant::FastScanCapable(quantizer)) {
    // 4-bit quantizer: keep packed per-vertex neighbor blocks in memory so
    // ADC navigation runs through the FastScan shuffle kernels.
    index->fastscan_ = quant::PackedNeighborBlocks::Build(
        graph, index->codes_.data(), quantizer.code_size());
  }
  return index;
}

DiskSearchResult DiskIndex::Search(const float* query, size_t k,
                                   const graph::BeamSearchOptions& options,
                                   obs::QueryTrace* trace) const {
  DiskSearchResult out;
  const size_t beam_width = std::max(options.beam_width, k);
  const size_t code_size = quantizer_.code_size();

  // Navigation estimator: float ADC by default, the FastScan u8 shuffle path
  // when packed neighbor blocks were built. Either way results are reranked
  // by exact distances from the fetched vectors, so routing precision only
  // moves hop counts.
  std::optional<quant::AdcTable> table;
  std::optional<quant::AdcBatchOracle> adc;
  std::optional<quant::FastScanTable> ftable;
  std::optional<quant::FastScanNeighborOracle> fast;
  {
    obs::ScopedStage span(obs::Stage::kLutBuild, trace);
    if (fastscan_.has_value()) {
      ftable.emplace(quantizer_, query);
      fast.emplace(*ftable, codes_.data(), code_size, *fastscan_);
    } else {
      table.emplace(quantizer_, query);
      adc.emplace(quant::AdcBatchOracle{*table, codes_.data(), code_size});
    }
  }

  // graph::BeamSearch's traversal, wave-structured: up to `io_width` best
  // unexpanded entries are drained per iteration, their SSD reads overlap
  // through AsyncIoContext, and the readahead prefetcher speculates on the
  // next-best candidates while the wave is in flight. Each fetched block is
  // expanded by the shared step (graph::detail::ExpandVertex) with the
  // adjacency read from the device; only this wave driver is disk-specific.
  // Exact-distance rerank happens on the side.
  graph::VisitedTable& visited = *graph::TlsVisitedTable(num_vertices_);
  graph::detail::FlatBeam beam(beam_width);  // ascending by (est distance, id)
  graph::detail::ExpandScratch scratch(max_degree_);
  // The shared refinement buffer, fed exact distances from fetched vectors:
  // the disk path refines DURING traversal (re-fetching blocks afterwards
  // would double the I/O), so no separate Refiner stage runs — the buffer's
  // (distance, id) selection is the whole epilogue, bit-identical to the
  // TopK it replaces.
  refine::CandidateBuffer rerank(k);

  if (fast.has_value()) {
    graph::detail::SeedBeam(entry_, *fast, &beam, &visited, &out.stats);
  } else {
    graph::detail::SeedBeam(entry_, *adc, &beam, &visited, &out.stats);
  }

  // Scores one fetched node block: exact rerank of the node itself (counted
  // as a distance computation, like the memory backends count their rerank)
  // plus estimate-scored beam inserts for its adjacency. The FastScan path
  // scores the whole adjacency from the packed in-memory blocks, which hold
  // the same adjacency order as the on-disk lists.
  const auto process_block = [&](uint32_t v, const uint8_t* blk) {
    const float* vec = reinterpret_cast<const float*>(blk);
    uint32_t deg = 0;
    std::memcpy(&deg, blk + dim_ * sizeof(float), sizeof(deg));
    const uint32_t* nbrs = reinterpret_cast<const uint32_t*>(
        blk + dim_ * sizeof(float) + sizeof(uint32_t));

    rerank.Push(SquaredL2(query, vec, dim_), v);
    ++out.stats.dist_comps;

    if (fast.has_value()) {
      graph::detail::ExpandVertex(v, nbrs, deg, *fast, &beam, &visited,
                                  &scratch, &out.stats);
    } else {
      graph::detail::ExpandVertex(v, nbrs, deg, *adc, &beam, &visited,
                                  &scratch, &out.stats);
    }
  };

  AsyncIoContext aio(*ssd_, ssd_->options().queue_depth);
  // The cache must be able to hold every still-unexpanded speculation: the
  // loop only terminates once the whole beam is expanded, so a cached block
  // that survives in the beam is a guaranteed (eventual) hit — evicting
  // early would convert those hits into wasted reads. Bound by the beam
  // width (plus slack for churn).
  PrefetchCache cache(
      readahead_ > 0 ? beam_width + 4 * readahead_ : 0);
  std::vector<WaveSlot> wave;
  wave.reserve(io_width_);
  std::vector<IoCompletion> completions;

  {
  obs::ScopedStage span(obs::Stage::kBeam, trace);
  for (;;) {
    if (beam.NextUnexpanded() == graph::detail::FlatBeam::kNone) break;
    // The deadline covers simulated device time too: latency that would be
    // real on the modeled hardware counts against the budget. Checked once
    // per wave (per hop at io_width=1), so an expensive wave surfaces as a
    // degraded partial answer at the next boundary.
    if (options.deadline.Expired(out.io.simulated_seconds)) {
      out.stats.deadline_hit = true;
      out.degraded = true;
      break;
    }

    // Drain up to io_width best unexpanded entries into this wave — the
    // same (estimate, id) order the sequential path expands one at a time.
    wave.clear();
    while (wave.size() < io_width_) {
      const size_t next = beam.NextUnexpanded();
      if (next == graph::detail::FlatBeam::kNone) break;
      beam.MarkExpanded(next);
      wave.push_back(WaveSlot{beam.entries()[next].id, nullptr});
      ++out.stats.hops;
    }

    // Demand submissions; a prefetch-cache hit already holds the block and
    // costs no device time.
    for (size_t i = 0; i < wave.size(); ++i) {
      WaveSlot& s = wave[i];
      if (readahead_ > 0) s.data = cache.Take(s.id);
      if (s.data != nullptr) {
        ++out.io.prefetch_hits;
        continue;
      }
      aio.SubmitRead(s.id, static_cast<uint64_t>(i));
    }

    // Beam-guided readahead: speculate on the next-best unexpanded
    // candidates (the beam's estimate order IS the prediction) while the
    // demand wave is in flight. Failed speculative reads are dropped, not
    // retried — the block simply falls back to a demand read if expanded.
    // Every read submitted in a wave is polled in that wave, so a candidate
    // is either cached or not yet read.
    if (readahead_ > 0) {
      size_t speculated = 0;
      for (const auto& e : beam.entries()) {
        if (speculated >= readahead_) break;
        if (e.expanded != 0 || cache.Contains(e.id)) continue;
        aio.SubmitRead(e.id, kSpecTag);
        ++out.io.prefetch_issued;
        ++speculated;
      }
    }

    if (aio.pending() > 0) {
      // One overlapped wave: demand + speculative reads complete together,
      // charging max(slowest, serial/queue_depth) of simulated time.
      aio.PollCompletions(&completions, &out.io);
      for (const IoCompletion& c : completions) {
        if (c.user_data & kSpecTag) {
          if (c.data != nullptr) cache.Insert(c.block, c.data);
          continue;
        }
        wave[c.user_data].data = c.data;
      }

      // Bounded retry of failed DEMAND reads (PR 8 semantics): each round
      // charges kRetryBackoffSeconds per block before re-issuing, and the
      // retry wave overlaps on the device like any other.
      for (size_t round = 0; round < kMaxReadRetries; ++round) {
        bool any = false;
        for (size_t i = 0; i < wave.size(); ++i) {
          if (wave[i].data != nullptr) continue;
          ++out.io.retries;
          out.io.simulated_seconds += kRetryBackoffSeconds;
          aio.SubmitRead(wave[i].id, static_cast<uint64_t>(i));
          any = true;
        }
        if (!any) break;
        aio.PollCompletions(&completions, &out.io);
        for (const IoCompletion& c : completions) {
          wave[c.user_data].data = c.data;
        }
      }
    }

    // Score fetched nodes in wave (estimate, id) order — identical to the
    // sequential expansion order. A block that stayed unreadable through all
    // retries is skipped (degraded recall, never a crash).
    for (const WaveSlot& s : wave) {
      if (s.data != nullptr) {
        process_block(s.id, s.data);
      } else {
        out.degraded = true;
      }
    }
  }
  }
  // Speculated blocks no expansion consumed (failed, evicted, or still
  // cached when the beam finished) were wasted reads.
  out.io.prefetch_wasted = out.io.prefetch_issued - out.io.prefetch_hits;

  {
    obs::ScopedStage span(obs::Stage::kMerge, trace);
    out.results = rerank.TakeSortedNeighbors(k);
  }
  // Simulated device time is not wall time, so it is reported as its own
  // span rather than being timed.
  if (trace != nullptr || obs::MetricsEnabled()) {
    obs::RecordSpan(obs::Stage::kIo,
                    static_cast<uint64_t>(out.io.simulated_seconds * 1e9),
                    trace);
  }
  if (obs::MetricsEnabled()) {
    static const obs::CounterId queries = obs::GetCounter("disk.queries");
    static const obs::CounterId reads = obs::GetCounter("disk.block_reads");
    static const obs::CounterId bytes = obs::GetCounter("disk.io_bytes");
    static const obs::CounterId hops = obs::GetCounter("graph.hops");
    static const obs::CounterId dist = obs::GetCounter("graph.dist_comps");
    static const obs::CounterId hits = obs::GetCounter("graph.visited_hits");
    static const obs::CounterId errors = obs::GetCounter("disk.io_errors");
    static const obs::CounterId retries = obs::GetCounter("disk.retries");
    static const obs::CounterId spikes = obs::GetCounter("disk.latency_spikes");
    static const obs::CounterId waves = obs::GetCounter("disk.io_waves");
    static const obs::CounterId pf_issued =
        obs::GetCounter("disk.prefetch_issued");
    static const obs::CounterId pf_hits = obs::GetCounter("disk.prefetch_hits");
    static const obs::CounterId pf_wasted =
        obs::GetCounter("disk.prefetch_wasted");
    obs::Add(queries, 1);
    obs::Add(reads, out.io.reads);
    obs::Add(bytes, out.io.bytes);
    obs::Add(hops, out.stats.hops);
    obs::Add(dist, out.stats.dist_comps);
    obs::Add(hits, out.stats.visited_hits);
    obs::Add(errors, out.io.io_errors);
    obs::Add(retries, out.io.retries);
    obs::Add(spikes, out.io.latency_spikes);
    obs::Add(waves, out.io.io_waves);
    obs::Add(pf_issued, out.io.prefetch_issued);
    obs::Add(pf_hits, out.io.prefetch_hits);
    obs::Add(pf_wasted, out.io.prefetch_wasted);
  }
  return out;
}

size_t DiskIndex::MemoryBytes() const {
  size_t bytes = codes_.size() + quantizer_.ModelSizeBytes();
  if (fastscan_.has_value()) bytes += fastscan_->MemoryBytes();
  return bytes;
}

}  // namespace rpq::disk
