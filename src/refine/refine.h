// Unified refinement pipeline: the cheap-estimate -> higher-fidelity-rerank
// epilogue every retrieval backend shares (the paper's accuracy story —
// quantized navigation, refined answers) as ONE subsystem instead of three
// copy-pasted ones.
//
// The pipeline has two pieces:
//
//   CandidateBuffer — the bounded (estimate, id)-ordered candidate heap a
//     scan or traversal feeds. Selection is a strict total order on
//     (estimate, id), so the kept set is independent of push order — the
//     property that lets IVF's grouped multi-query scans, the beam search,
//     and the disk traversal all reproduce their per-query references
//     exactly.
//
//   Refiner — a stage that re-scores candidates at higher fidelity:
//     AdcRefiner       float-ADC lookup sums (undoes FastScan's u8 rounding),
//     ExactRefiner     raw-vector squared L2 (lifts the recall ceiling past
//                      what the codes can reach; needs retained rows),
//     LinkCodeRefiner  Link&Code neighbor-regression reconstruction
//                      (quant/linkcode.h) — between ADC and exact in both
//                      fidelity and cost, with no raw rows stored.
//
// RefineTopK(buffer, refiner, k) composes them: drain the kept candidates,
// re-score every one, return the sorted top-k by (refined distance, id).
// core::MemoryIndex (FastScan epilogue), ivf::IvfIndex (list-scan epilogue),
// and disk::DiskIndex (exact-on-fetch rerank heap) all route through here;
// the residual-IVFADC stage (ResidualAdcRefiner, decode + centroid add)
// plugs into the same seam for IVF's per-cell residual codes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/topk.h"
#include "obs/trace.h"
#include "quant/adc.h"
#include "quant/linkcode.h"

namespace rpq::refine {

/// Which refinement stage re-scores the kept candidates before top-k.
/// kAuto defers to the backend: exact when it retains raw vectors, float-ADC
/// otherwise — the behavior deployments had before the mode was a knob.
enum class RerankMode : uint8_t { kAuto = 0, kAdc, kExact, kLinkCode };

/// Lowercase stable name ("auto", "adc", "exact", "linkcode") for logs/CLIs.
const char* RerankModeName(RerankMode mode);

/// Parses a RerankModeName() string; returns false on unknown names.
bool ParseRerankMode(const char* name, RerankMode* out);

/// The one home of the kAuto policy: exact when the backend retains raw
/// rows, float-ADC otherwise (the behavior deployments had before the mode
/// was a knob). Non-auto modes pass through.
inline RerankMode ResolveAutoMode(RerankMode mode, bool stores_vectors) {
  if (mode != RerankMode::kAuto) return mode;
  return stores_vectors ? RerankMode::kExact : RerankMode::kAdc;
}

/// Degrades a requested stage the backend cannot serve back to kAuto.
/// Serving boundaries call this on per-query knobs so a remote caller's
/// request never trips the library's contract checks and aborts the
/// process; direct library misuse still RPQ_CHECKs.
inline RerankMode SanitizeRequestedMode(RerankMode requested,
                                        bool stores_vectors,
                                        bool has_linkcode) {
  if ((requested == RerankMode::kExact && !stores_vectors) ||
      (requested == RerankMode::kLinkCode && !has_linkcode)) {
    return RerankMode::kAuto;
  }
  return requested;
}

/// Per-query rerank request: how many candidates to re-score and with which
/// stage. Zero / kAuto fields defer to the backend's configured defaults.
struct RerankSpec {
  size_t width = 0;                     ///< 0 = backend default / auto rule
  RerankMode mode = RerankMode::kAuto;  ///< kAuto = backend default
};

/// The shared auto-rerank rule: a caller-requested width (0 = auto) resolved
/// against k. Auto keeps max(2k, 32) candidates — enough that u8/ADC
/// estimate error rarely evicts a true top-k member — and any explicit
/// request is clamped up to k so the rerank can always fill the answer.
inline size_t EffectiveRerankWidth(size_t requested, size_t k) {
  const size_t width = requested > 0 ? requested : std::max(2 * k, size_t{32});
  return std::max(width, k);
}

/// One kept candidate: the estimate it was selected by, its global id, and
/// an opaque backend tag saying where its storage lives (IVF packs
/// (list << 32) | position; flat backends leave it 0).
struct Candidate {
  float est;
  uint32_t id;
  uint64_t tag;
};

/// Strict total order on (estimate, id) — the selection rule shared by every
/// backend's candidate stage and by common/topk.h.
inline bool CandidateBefore(float est_a, uint32_t id_a, float est_b,
                            uint32_t id_b) {
  return est_a < est_b || (est_a == est_b && id_a < id_b);
}

/// Bounded max-heap of the `limit` best candidates by (estimate, id).
/// Matches TopK's keep/evict decisions exactly (same strict order), so a
/// backend that previously kept exact distances in a TopK keeps bit-pinned
/// results when its heap becomes a CandidateBuffer.
class CandidateBuffer {
 public:
  explicit CandidateBuffer(size_t limit) : limit_(limit) {
    heap_.reserve(limit + 1);
  }

  /// Returns true if the candidate was kept.
  bool Push(float est, uint32_t id, uint64_t tag = 0) {
    if (heap_.size() < limit_) {
      heap_.push_back({est, id, tag});
      std::push_heap(heap_.begin(), heap_.end(), Worse);
      return true;
    }
    const Candidate& root = heap_.front();
    if (!CandidateBefore(est, id, root.est, root.id)) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Worse);
    heap_.back() = {est, id, tag};
    std::push_heap(heap_.begin(), heap_.end(), Worse);
    return true;
  }

  /// Bulk-feeds candidates that are already bounded by construction
  /// (n must fit the remaining capacity — e.g. a beam search invoked with
  /// result count <= limit): appends without per-push heap maintenance and
  /// restores the heap invariant once. Selection-wise identical to n
  /// Push() calls, since nothing can evict.
  void PushBounded(const Neighbor* cands, size_t n) {
    RPQ_CHECK(heap_.size() + n <= limit_ &&
              "PushBounded needs pre-bounded input; use Push");
    for (size_t i = 0; i < n; ++i) {
      heap_.push_back({cands[i].dist, cands[i].id, 0});
    }
    std::make_heap(heap_.begin(), heap_.end(), Worse);
  }

  /// Worst kept estimate, or +inf while the buffer is not yet full.
  float Threshold() const {
    if (heap_.size() < limit_) return std::numeric_limits<float>::infinity();
    return heap_.front().est;
  }

  size_t size() const { return heap_.size(); }
  size_t limit() const { return limit_; }
  bool empty() const { return heap_.empty(); }

  /// Kept candidates in unspecified (heap) order — what a Refiner consumes;
  /// refined top-k selection does not depend on this order.
  const std::vector<Candidate>& entries() const { return heap_; }

  /// Extracts candidates sorted ascending by (estimate, id); consumes.
  std::vector<Candidate> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end(), Worse);
    return std::move(heap_);
  }

  /// TakeSorted() truncated to k and stripped to (dist, id) — the epilogue
  /// for backends whose estimates are already final (disk's exact-on-fetch
  /// rerank); bit-identical to the TopK they previously kept.
  std::vector<Neighbor> TakeSortedNeighbors(size_t k);

 private:
  static bool Worse(const Candidate& a, const Candidate& b) {
    return CandidateBefore(a.est, a.id, b.est, b.id);
  }

  size_t limit_;
  std::vector<Candidate> heap_;
};

/// A refinement stage: re-scores `n` candidates at higher fidelity than the
/// estimate that selected them. Implementations are per-query objects (they
/// carry the query's tables/pointers and mutable scratch) — cheap to build,
/// not shareable across threads.
class Refiner {
 public:
  virtual ~Refiner() = default;
  virtual void Refine(const Candidate* cands, size_t n, float* out) const = 0;
};

/// Float-ADC stage: lookup-table sums at full float precision, batched
/// through DistanceLut's scan (DistanceBatch / DistanceBatchGather —
/// bit-identical to per-code DistanceLut::Distance on every backend).
///
/// Two storage shapes: a flat code array addressed by global id (graph
/// backends — the batch is one DistanceBatchGather call), or a resolver
/// callback for scattered storage (IVF's per-list arrays — codes are copied
/// into a contiguous scratch block and scanned with DistanceBatch).
class AdcRefiner : public Refiner {
 public:
  using CodeFn = std::function<const uint8_t*(const Candidate&)>;

  AdcRefiner(const quant::DistanceLut& lut, const uint8_t* codes,
             size_t code_size)
      : lut_(lut), codes_(codes), code_size_(code_size) {}

  AdcRefiner(const quant::DistanceLut& lut, size_t code_size, CodeFn code_fn)
      : lut_(lut), code_size_(code_size), code_fn_(std::move(code_fn)) {}

  void Refine(const Candidate* cands, size_t n, float* out) const override;

 private:
  const quant::DistanceLut& lut_;
  const uint8_t* codes_ = nullptr;  ///< flat n x code_size, or null
  size_t code_size_;
  CodeFn code_fn_;                       ///< scattered-storage resolver
  mutable std::vector<uint32_t> ids_;    ///< gather scratch
  mutable std::vector<uint8_t> packed_;  ///< resolver scratch
};

/// Residual-IVFADC stage: each candidate's code was trained on x - centroid
/// (its IVF cell's residual), so the float-fidelity re-score reconstructs
/// decode(code) + centroid and takes exact L2 against that reconstruction —
/// the residual regime's equivalent of AdcRefiner's full-precision table
/// sums (what the u8 split-LUT estimate approximates), with no raw rows
/// needed. Slots in wherever kAdc resolves when the backend is residual.
class ResidualAdcRefiner : public Refiner {
 public:
  using CodeFn = std::function<const uint8_t*(const Candidate&)>;
  using CentroidFn = std::function<const float*(const Candidate&)>;

  ResidualAdcRefiner(const float* query,
                     const quant::VectorQuantizer& quantizer, CodeFn code_fn,
                     CentroidFn centroid_fn)
      : query_(query),
        quantizer_(quantizer),
        code_fn_(std::move(code_fn)),
        centroid_fn_(std::move(centroid_fn)) {
    // Centroid add happens in the decoded space, so the quantizer must
    // decode back to the original dimensionality.
    RPQ_CHECK_EQ(quantizer.decoded_dim(), quantizer.dim());
  }

  void Refine(const Candidate* cands, size_t n, float* out) const override;

 private:
  const float* query_;
  const quant::VectorQuantizer& quantizer_;
  CodeFn code_fn_;          ///< candidate -> its residual code
  CentroidFn centroid_fn_;  ///< candidate -> its cell's centroid
  mutable std::vector<float> recon_;  ///< per-candidate scratch
};

/// Exact stage: squared L2 against retained raw vectors — flat row-major by
/// global id, or a resolver for scattered storage (IVF's per-list rows).
class ExactRefiner : public Refiner {
 public:
  using VectorFn = std::function<const float*(const Candidate&)>;

  ExactRefiner(const float* query, size_t dim, const float* vectors)
      : query_(query), dim_(dim), vectors_(vectors) {}

  ExactRefiner(const float* query, size_t dim, VectorFn vector_fn)
      : query_(query), dim_(dim), vector_fn_(std::move(vector_fn)) {}

  void Refine(const Candidate* cands, size_t n, float* out) const override;

 private:
  const float* query_;
  size_t dim_;
  const float* vectors_ = nullptr;  ///< flat n x dim, or null
  VectorFn vector_fn_;
};

/// Link&Code stage: distances to the neighbor-regression-refined
/// reconstructions (quant::LinkCodeIndex::RefinedDistance). Sits between ADC
/// and exact — better than the plain decode the codes allow, no raw rows —
/// at the cost of decoding 1 + num_links codes per candidate.
class LinkCodeRefiner : public Refiner {
 public:
  LinkCodeRefiner(const float* query, const quant::LinkCodeIndex& index)
      : query_(query), index_(index) {}

  void Refine(const Candidate* cands, size_t n, float* out) const override;

 private:
  const float* query_;
  const quant::LinkCodeIndex& index_;
};

/// The composed epilogue: re-scores every kept candidate with `refiner` and
/// returns the top-k by (refined distance, id), sorted ascending. The
/// buffer is read, not drained — callers treat it as per-query scratch.
/// When `trace` is set (or metrics are on) the re-score is attributed to the
/// refine stage and the top-k selection to the merge stage, and the
/// candidate count feeds the refine.candidates counter.
std::vector<Neighbor> RefineTopK(const CandidateBuffer& buffer,
                                 const Refiner& refiner, size_t k,
                                 obs::QueryTrace* trace = nullptr);

}  // namespace rpq::refine
