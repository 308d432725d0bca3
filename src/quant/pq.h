// Classic Product Quantization [37] with an optional orthonormal pre-rotation
// (identity for plain PQ). OPQ and the deployed RPQ are both "rotation + PQ",
// so they reuse this class for query-time work.
#pragma once

#include <memory>
#include <optional>

#include "common/logging.h"
#include "linalg/matrix.h"
#include "quant/codebook.h"
#include "quant/quantizer.h"

namespace rpq::quant {

/// Training knobs shared by PQ-family quantizers.
struct PqOptions {
  size_t m = 8;            ///< number of chunks M (must divide dim)
  size_t k = 0;            ///< codewords per sub-codebook; 0 = auto from
                           ///< nbits (16 when nbits == 4, 256 when 8)
  size_t nbits = 8;        ///< bits per chunk code: 8, or 4 (K <= 16,
                           ///< FastScan-layout ready)
  size_t kmeans_iters = 25;
  uint64_t seed = 13;

  /// K actually trained: the nbits-implied default when k == 0, the explicit
  /// value otherwise. An explicit K the code width cannot hold fails loudly
  /// here — training a silently smaller codebook than requested is how
  /// recall regressions hide. K = 256 under FastScan is served by the split
  /// regime (quant/split.h), not by capping.
  size_t effective_k() const {
    if (k == 0) return nbits == 4 ? 16 : 256;
    RPQ_CHECK((nbits == 4 ? k <= 16 : k <= 256) &&
              "PqOptions.k does not fit nbits: K <= 16 for 4-bit codes, "
              "<= 256 for 8-bit (use TrainSplitPq for K = 256 FastScan)");
    return k;
  }
};

/// Rotation + per-chunk nearest-codeword quantizer.
class PqQuantizer : public VectorQuantizer {
 public:
  /// Trains plain PQ (identity rotation) on `train`.
  static std::unique_ptr<PqQuantizer> Train(const Dataset& train,
                                            const PqOptions& options);

  /// Builds a quantizer from existing parts (used by OPQ and RPQ deployment).
  /// `rotation` maps original vectors into the quantized space: y = R x.
  PqQuantizer(Codebook codebook, std::optional<linalg::Matrix> rotation);
  ~PqQuantizer() override;  // out-of-line: split_ is incomplete here

  size_t dim() const override { return dim_; }
  size_t decoded_dim() const override { return dim_; }
  size_t num_chunks() const override { return codebook_.num_chunks(); }
  size_t num_centroids() const override { return codebook_.num_centroids(); }

  void Encode(const float* vec, uint8_t* code) const override;
  /// Decodes back to the ORIGINAL space (applies R^T after codeword lookup).
  void Decode(const uint8_t* code, float* out) const override;
  void BuildLookupTable(const float* query, float* table) const override;
  size_t ModelSizeBytes() const override;

  const Codebook& codebook() const { return codebook_; }
  bool has_rotation() const { return rotation_t_.has_value(); }
  /// R itself, rebuilt from the stored transpose: a copy, for cold callers
  /// (serialization, training, tests). Requires has_rotation().
  linalg::Matrix rotation() const;

  /// Maps an original-space vector into the quantized space (y = R x;
  /// identity copy for plain PQ). Public because split-table construction
  /// (quant/split.h) builds its per-level LUT rows from the rotated query.
  /// Bit-identical to linalg::MatVec(R, vec): each output is summed in the
  /// same order, as column axpys over R^T's rows that the compiler
  /// vectorizes instead of one serial add chain per row of R.
  void Rotate(const float* vec, float* out) const;

  /// The split structure when this model came from TrainSplitPq; null for
  /// plain models. The codebook_ then materializes A + B, so Encode /
  /// Decode / BuildLookupTable need no special casing.
  const SplitPqModel* split_model() const override { return split_.get(); }
  void set_split_model(std::unique_ptr<SplitPqModel> split);

  /// Mean squared reconstruction error over a dataset (distortion metric).
  double Distortion(const Dataset& data) const;

 private:
  size_t dim_;
  Codebook codebook_;
  std::optional<linalg::Matrix> rotation_t_;  // R^T; R is D x D orthonormal
  std::unique_ptr<SplitPqModel> split_;       // K = 256 split regime, or null
};

/// Trains the M sub-codebooks by running k-means on each chunk of `rotated`
/// (an n x dim row-major buffer already in the quantized space).
Codebook TrainCodebooks(const float* rotated, size_t n, size_t dim,
                        const PqOptions& options);

}  // namespace rpq::quant
