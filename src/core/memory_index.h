// PQ-integrated in-memory graph index (paper §7, in-memory scenario):
// memory holds the PG plus compact codes + codebook only — original vectors
// are NOT consulted at query time; ranking and results both use ADC. (A
// deployment that opts into MemoryIndexOptions.store_vectors trades that
// memory floor for an exact refinement stage, like the IVF backend does; one
// that attaches a Link&Code model gets a refinement stage from the codes.)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/topk.h"
#include "data/dataset.h"
#include "graph/beam_search.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "quant/adc.h"
#include "quant/fastscan.h"
#include "quant/quantizer.h"
#include "refine/refine.h"

namespace rpq::core {

/// Result of one in-memory query.
struct MemorySearchResult {
  std::vector<Neighbor> results;  ///< ascending by estimated distance
  graph::SearchStats stats;
};

/// Distance estimation mode (§3.1): ADC (default, lower error), SDC (both
/// sides quantized; requires a PQ-family quantizer), or FastScan (4-bit
/// codes scored through register-resident u8 LUT shuffles, always followed
/// by a refine::Refiner rerank of the top candidates; requires a quantizer
/// with K <= 16 and m <= 256).
enum class DistanceMode { kAdc, kSdc, kFastScan };

/// Build-time knobs.
struct MemoryIndexOptions {
  /// Lay out per-vertex packed neighbor blocks for DistanceMode::kFastScan
  /// when the quantizer is 4-bit capable (K <= 16 and
  /// quant::FastScanCapable) — ~deg * m/2 extra bytes per vertex;
  /// deployments that only search kAdc/kSdc can opt out.
  bool fastscan_layout = true;
  /// Retain the raw float rows (~4*dim bytes/vector): enables the exact
  /// refinement stage (refine::RerankMode::kExact), lifting the FastScan
  /// recall ceiling past what the codes alone can reach — the same knob
  /// IvfOptions carries.
  bool store_vectors = false;
};

/// Graph + codes index; the graph and quantizer are borrowed.
///
/// Search is const and thread-safe: per-query scratch (the visited table)
/// lives in thread-local storage (graph::TlsVisitedTable), so any number of
/// threads may search one index concurrently with no shared mutable state.
class MemoryIndex {
 public:
  /// `graph` has one vertex per row of `base`.
  static std::unique_ptr<MemoryIndex> Build(
      const Dataset& base, const graph::ProximityGraph& graph,
      const quant::VectorQuantizer& quantizer,
      const MemoryIndexOptions& options = {});

  /// SearchBatch of one query. `rerank` is the query's refinement request:
  /// width 0 = refine::EffectiveRerankWidth's auto rule, capped at the
  /// effective beam width max(beam_width, k); kAuto = exact when raw rows
  /// are stored, float-ADC otherwise. Every mode shares one refinement
  /// epilogue. kFastScan always runs it; kAdc and kSdc run it only when
  /// `rerank.mode` names a stage, so with kAuto they return the beam's own
  /// top-k. `trace`, when non-null, receives per-stage spans (lut_build /
  /// beam / refine / merge) for this query.
  MemorySearchResult Search(const float* query, size_t k,
                            const graph::BeamSearchOptions& options,
                            DistanceMode mode = DistanceMode::kAdc,
                            const refine::RerankSpec& rerank = {},
                            obs::QueryTrace* trace = nullptr) const;

  /// Scores `nq` queries back-to-back on the calling thread. Each tile's
  /// lookup tables (ADC, or SDC for kSdc) are built up-front, before any
  /// graph traversal, which keeps the codebook cache-resident across table
  /// builds — the amortization the serving micro-batcher exists to exploit.
  /// A batch shares one `trace`: its spans accumulate across all nq queries.
  std::vector<MemorySearchResult> SearchBatch(
      const float* const* queries, size_t nq, size_t k,
      const graph::BeamSearchOptions& options,
      DistanceMode mode = DistanceMode::kAdc,
      const refine::RerankSpec& rerank = {},
      obs::QueryTrace* trace = nullptr) const;

  /// Codes + model bytes (the in-memory footprint the paper constrains),
  /// including the packed FastScan neighbor blocks and retained raw rows
  /// when built with them.
  size_t MemoryBytes() const;
  const std::vector<uint8_t>& codes() const { return codes_; }
  size_t num_vertices() const { return graph_.num_vertices(); }

  /// True when Build laid out packed neighbor blocks (4-bit quantizer),
  /// i.e. DistanceMode::kFastScan is available.
  bool fastscan_capable() const { return fastscan_.has_value(); }
  /// True when Build retained the raw rows (RerankMode::kExact available).
  bool stores_vectors() const { return !vectors_.empty(); }

  /// Attaches a Link&Code refinement model (borrowed; must outlive the
  /// index) — enables refine::RerankMode::kLinkCode, which reranks with
  /// graph-neighbor-regression reconstructions instead of raw rows.
  void set_linkcode(const quant::LinkCodeIndex* linkcode) {
    linkcode_ = linkcode;
  }
  const quant::LinkCodeIndex* linkcode() const { return linkcode_; }

 private:
  MemoryIndex(const graph::ProximityGraph& graph,
              const quant::VectorQuantizer& quantizer)
      : graph_(graph), quantizer_(quantizer) {}

  /// The query's float lookup table: SDC for kSdc, ADC otherwise (kFastScan
  /// quantizes it to u8 and reranks with it). Both are plain DistanceLuts.
  quant::DistanceLut TableFor(const float* query, DistanceMode mode) const;

  /// One beam search on the query's table: the float table itself for kAdc
  /// and kSdc, its u8 FastScan quantization for kFastScan.
  std::vector<Neighbor> Navigate(const quant::DistanceLut& table,
                                 DistanceMode mode,
                                 const graph::BeamSearchOptions& options,
                                 graph::VisitedTable* visited,
                                 graph::SearchStats* stats,
                                 obs::QueryTrace* trace) const;

  /// The refinement epilogue: re-scores every beam survivor with the
  /// `rerank` stage and returns the top-k by (refined distance, id).
  std::vector<Neighbor> Refine(const float* query,
                               const quant::DistanceLut& table,
                               DistanceMode mode,
                               const std::vector<Neighbor>& cands, size_t k,
                               refine::RerankMode rerank,
                               graph::SearchStats* stats,
                               obs::QueryTrace* trace) const;

  const graph::ProximityGraph& graph_;
  const quant::VectorQuantizer& quantizer_;
  std::vector<uint8_t> codes_;
  std::optional<quant::PackedNeighborBlocks> fastscan_;
  std::vector<float> vectors_;  ///< n x dim iff store_vectors
  size_t dim_ = 0;
  const quant::LinkCodeIndex* linkcode_ = nullptr;
};

}  // namespace rpq::core
