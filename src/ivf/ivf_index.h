// IVF (inverted-file) partitioned index — the first non-graph retrieval path.
//
// A k-means coarse quantizer splits the corpus into nlist cells; each cell
// stores its members' PQ codes in the FastScan blocked-transposed layout
// (quant::PackedCodes) plus their global ids. A query routes to the nprobe
// nearest cells (one fused simd::L2ToMany pass over the centroid table) and
// scores every code in them with register-resident LUT shuffles
// (simd::AdcFastScan) — the flat-scan regime where the blocked layout is at
// its best (~8x per code over gathered float-ADC): no per-candidate
// branching, no visited table, pure sequential blocks. The top `rerank`
// candidates by u8 estimate are then re-scored with the float ADC table
// (or, when the index retains raw vectors, exact squared L2) before top-k.
//
// Two quality upgrades compose on top of the 4-bit flat regime, both staying
// on the shuffle-kernel path:
//   * K = 256 split tables — a split-trained quantizer (quant/split.h)
//     stores full 8-bit codes whose blocks are the 4-bit layout of the
//     nibble-expanded code, so the same kernels score them through a 2m-row
//     quant::SplitTable (2x the per-code cost), plus one stored float per
//     vector for the query-independent cross term.
//   * Residual IVFADC (IvfOptions.residual) — codes quantize x - centroid
//     of the owning cell, and each probed cell gets its own lookup table
//     built from q - centroid, so estimates approximate the same
//     || q - x_hat ||^2 across cells. The per-probed-cell LUT build is the
//     price of the sharper codes (see BM_IvfResidualLutBuild); SearchBatch
//     still scans each cell's blocks once for all queries probing it.
// All four {plain, residual} x {4-bit, split} regimes score a cell through
// one quant::FastScanTable per query probing it and one
// simd::AdcFastScanMulti call: SearchBatch has a single per-cell scan body,
// and Search is a batch of one.
//
// Compared to the graph indexes this trades hops for scans: recall is
// controlled by nprobe instead of beam width, inserts are O(m) list appends
// with NO graph repair, and batches of queries probing the same cell share
// each packed block while it is register-resident
// (simd::AdcFastScanMulti — see SearchBatch).
//
// Concurrency: Search/SearchBatch are const and take the reader side of a
// writer-priority rwlock; Insert takes the writer side. Any number of
// threads may search while inserts interleave (the same contract FreshVamana
// serves streaming updates under).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rwlock.h"
#include "common/status.h"
#include "common/topk.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "quant/fastscan.h"
#include "quant/quantizer.h"
#include "refine/refine.h"

namespace rpq::ivf {

/// Build-time knobs.
struct IvfOptions {
  size_t nlist = 64;        ///< coarse cells (clamped to the corpus size)
  size_t kmeans_iters = 20; ///< coarse-quantizer Lloyd iterations
  uint64_t seed = 17;
  /// Rows used to train the coarse quantizer (0 = all). Assignment always
  /// covers every row; sampling only caps the k-means cost on large corpora.
  size_t train_sample = 0;
  /// Retain the raw float rows per list: ~4*dim bytes/vector buys an EXACT
  /// rerank of the top candidates instead of the float-ADC one, lifting the
  /// recall ceiling past what the 4-bit codes alone can reach.
  bool store_vectors = false;
  size_t default_nprobe = 8; ///< used when IvfSearchOptions.nprobe == 0
  /// Residual IVFADC: encode x - centroid(cell) instead of x. The residual
  /// spans a much tighter ball than the raw corpus, so the same code budget
  /// quantizes far more sharply; the cost is one lookup-table build per
  /// (query, probed cell) because estimates must come from q - centroid.
  bool residual = false;
};

/// Query-time knobs.
struct IvfSearchOptions {
  size_t nprobe = 0;  ///< cells probed; 0 = index default, clamped to nlist
  /// Candidates re-scored before top-k; 0 = the shared auto rule
  /// (refine::EffectiveRerankWidth: max(2k, 32)). The pre-rerank candidate
  /// ranking is bit-identical across SIMD backends (integer LUT sums).
  size_t rerank = 0;
  /// Refinement stage for the kept candidates. kAuto = exact when the index
  /// stores raw rows, float-ADC otherwise; kExact requires
  /// IvfOptions.store_vectors; kLinkCode is a graph-side stage and is
  /// rejected here (IVF cells carry no adjacency to regress over).
  refine::RerankMode rerank_mode = refine::RerankMode::kAuto;
  /// When set, receives per-stage spans (route / scan / refine / merge);
  /// SearchBatch accumulates the whole batch's spans into the one trace.
  obs::QueryTrace* trace = nullptr;
  /// Optional budget: checked once per probed cell; on expiry the remaining
  /// cells are skipped and IvfStats::deadline_hit is set — the candidates
  /// already scanned still refine and rank normally.
  Deadline deadline;
};

/// Per-query cost counters (the IVF analogue of graph::SearchStats).
struct IvfStats {
  size_t lists_probed = 0;
  size_t codes_scanned = 0;  ///< codes scored with the u8 estimator
  bool deadline_hit = false;  ///< probing stopped early at the deadline
};

struct IvfSearchResult {
  std::vector<Neighbor> results;  ///< ascending by (distance, id)
  IvfStats stats;
};

/// Inverted-file index over a borrowed FastScan-capable quantizer
/// (quant::FastScanCapable): either 4-bit (K <= 16, m <= 256) or
/// split-trained K = 256 (quant::PqQuantizer with a SplitPqModel attached,
/// m <= 128).
class IvfIndex {
 public:
  /// Trains the coarse quantizer on `base`, encodes every row, and fills the
  /// lists. Row i keeps global id i (Insert continues the sequence).
  static std::unique_ptr<IvfIndex> Build(const Dataset& base,
                                         const quant::VectorQuantizer& quantizer,
                                         const IvfOptions& options = {});

  /// The coarse-quantizer training step of Build, exposed on its own: the
  /// k-means centroids (nlist' x dim, nlist' <= options.nlist) for `base`.
  /// Deterministic in (base, options), so a deployment that persists only
  /// the PQ model can re-derive identical routing instead of shipping the
  /// centroid table.
  static std::vector<float> TrainCoarse(const Dataset& base,
                                        const IvfOptions& options = {});

  /// Build over precomputed coarse centroids — TrainCoarse + this == Build.
  static std::unique_ptr<IvfIndex> BuildWithCentroids(
      const Dataset& base, std::vector<float> centroids,
      const quant::VectorQuantizer& quantizer, const IvfOptions& options = {});

  /// Empty index over precomputed coarse centroids (nlist x dim, row-major)
  /// — the streaming start: lists fill through Insert alone.
  static std::unique_ptr<IvfIndex> CreateEmpty(
      std::vector<float> centroids, size_t dim,
      const quant::VectorQuantizer& quantizer, const IvfOptions& options = {});

  /// Appends one vector (returns its global id). O(code_size) list append —
  /// no graph repair; safe to interleave with concurrent Search calls.
  uint32_t Insert(const float* vec);

  /// One query: SearchBatch of one. Its cells are probed nearest first, so
  /// a deadline cuts the farthest ones.
  IvfSearchResult Search(const float* query, size_t k,
                         const IvfSearchOptions& options = {}) const;

  /// Serves nq queries in one pass with multi-query LUT batching: queries
  /// are routed first, then each probed list is scanned ONCE against all the
  /// queries that routed to it (simd::AdcFastScanMulti keeps every packed
  /// block register-resident across their LUTs). One scan body serves all
  /// four regimes; only where a cell's tables come from differs (per query,
  /// or per (cell, query) in the residual regime). Results are identical to
  /// per-query searches — candidate sums are bit-identical and selection is
  /// a strict (distance, id) order, so grouping cannot change top-k.
  std::vector<IvfSearchResult> SearchBatch(
      const float* const* queries, size_t nq, size_t k,
      const IvfSearchOptions& options = {}) const;

  size_t nlist() const { return nlist_; }
  size_t dim() const { return dim_; }
  size_t size() const;  ///< total indexed vectors (locks)
  bool stores_vectors() const { return options_.store_vectors; }
  bool residual() const { return options_.residual; }
  /// Cells a query probes when IvfSearchOptions.nprobe is 0 (saved with the
  /// index; clamped to nlist at search time).
  size_t default_nprobe() const { return options_.default_nprobe; }
  const quant::VectorQuantizer& quantizer() const { return quantizer_; }
  const std::vector<float>& centroids() const { return centroids_; }

  /// Centroids + ids + codes (unpacked and packed) + retained vectors.
  size_t MemoryBytes() const;

  /// Persists centroids, options, and list contents (not the quantizer —
  /// pair with quant::SaveQuantizer, as MemoryIndex deployments do).
  /// Format (little-endian), version 3, written atomically (temp + rename):
  ///   magic "RPQI" | u32 version | u32 dim | u32 nlist | u32 code_size
  ///   | u8 store_vectors | u8 residual | u32 default_nprobe | u64 num_codes
  ///   | centroids f32[nlist*dim]
  ///   | per list: u64 count | u32 ids[count] | u8 codes[count*code_size]
  ///               | f32 vectors[count*dim] (iff store_vectors)
  ///   | u32 CRC32 over every preceding byte, then end of file
  /// The packed blocks and the split cross constants are rebuilt from the
  /// codes at load time, so the on-disk list payload is layout-independent.
  Status Save(const std::string& path) const;

  /// Loads an index written by Save; `quantizer` must match the saved shape
  /// (code_size, and quant::FastScanCapable) and is borrowed like in Build.
  /// Only version 3 loads, and only with a matching trailer at end of file;
  /// a plain (non-split) code byte at or past the quantizer's K is an
  /// IOError too.
  static Result<std::unique_ptr<IvfIndex>> Load(
      const std::string& path, const quant::VectorQuantizer& quantizer);

 private:
  /// One coarse cell: ids + codes in both layouts (+ optional raw rows).
  /// Unpacked codes serve the rerank pass and persistence; packed blocks
  /// serve the scan. The tail block's padding slots are zero and simply
  /// ignored (sums past list size are never read). In the split regime the
  /// packed blocks hold the nibble-expanded layout (2 x code_size rows) and
  /// `cross` carries each vector's query-independent cross constant.
  struct InvertedList {
    std::vector<uint32_t> ids;
    std::vector<uint8_t> codes;   ///< count x code_size, byte per chunk
    quant::PackedCodes packed;
    std::vector<float> vectors;   ///< count x dim iff store_vectors
    std::vector<float> cross;     ///< count floats iff split quantizer
  };

  IvfIndex(const quant::VectorQuantizer& quantizer, const IvfOptions& options,
           size_t dim, std::vector<float> centroids);

  /// True when the borrowed quantizer is split-trained (K = 256 scored
  /// through 2m-row tables; lists carry expanded blocks + cross).
  bool split() const { return quantizer_.split_model() != nullptr; }

  /// The u8 table for one query (or one residual q - centroid): a 2m-row
  /// quant::SplitTable for a split quantizer, a 4-bit FastScanTable
  /// otherwise.
  quant::FastScanTable TableFor(const float* query) const;

  size_t EffectiveNprobe(const IvfSearchOptions& options) const;

  /// The `nprobe` nearest cells by (centroid distance, list id), ascending.
  void RouteLists(const float* query, size_t nprobe,
                  std::vector<uint32_t>* out) const;

  /// Rebuilds one list's packed blocks (and split cross constants) from its
  /// unpacked codes — Build and Load share it.
  void RepackList(InvertedList& list) const;

  /// Appends one unpacked code to a list's packed blocks (+ cross).
  void AppendPacked(InvertedList& list, const uint8_t* code) const;

  /// Feeds one list's u16 sums into the shared bounded candidate buffer;
  /// each candidate's tag records (list << 32) | position so the refinement
  /// stage can find its code / raw row / centroid. `cross` is the list's
  /// per-vector cross constants in the split regime, null otherwise; the
  /// non-null branch is separate so the 4-bit path's float sequence stays
  /// bit-identical to what it was before the split regime existed.
  static void PushCandidates(float bias, float scale, const uint16_t* sums,
                             const float* cross, uint32_t list, size_t count,
                             const std::vector<uint32_t>& ids,
                             refine::CandidateBuffer* buffer);

  /// Shared refinement epilogue: re-scores the kept candidates with the
  /// requested refine::Refiner stage into sorted top-k. `lut` backs the
  /// non-residual kAdc stage and is null in the residual regime, where kAdc
  /// resolves to refine::ResidualAdcRefiner (decode + centroid add).
  IvfSearchResult FinishQuery(const float* query, const quant::DistanceLut* lut,
                              refine::CandidateBuffer& buffer, size_t k,
                              refine::RerankMode mode, IvfStats stats,
                              obs::QueryTrace* trace) const;

  const quant::VectorQuantizer& quantizer_;
  IvfOptions options_;
  size_t dim_;
  size_t nlist_;
  std::vector<float> centroids_;  ///< nlist x dim, immutable after creation
  std::vector<InvertedList> lists_;
  size_t num_codes_ = 0;
  mutable WriterPriorityMutex mu_;  ///< readers: Search*, writer: Insert
};

}  // namespace rpq::ivf
