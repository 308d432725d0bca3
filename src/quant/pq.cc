#include "quant/pq.h"

#include <cstring>
#include <vector>

#include "common/distance.h"
#include "common/logging.h"
#include "quant/kmeans.h"
#include "quant/split.h"
#include "simd/simd.h"

namespace rpq::quant {

Codebook TrainCodebooks(const float* rotated, size_t n, size_t dim,
                        const PqOptions& options) {
  RPQ_CHECK_EQ(dim % options.m, 0u);
  RPQ_CHECK(options.nbits == 8 || options.nbits == 4);
  const size_t k = options.effective_k();
  RPQ_CHECK_LE(k, 256u);
  size_t sub_dim = dim / options.m;
  Codebook book(options.m, k, sub_dim);

  std::vector<float> chunk(n * sub_dim);
  for (size_t j = 0; j < options.m; ++j) {
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(chunk.data() + i * sub_dim, rotated + i * dim + j * sub_dim,
                  sub_dim * sizeof(float));
    }
    KMeansOptions km;
    km.k = k;
    km.max_iters = options.kmeans_iters;
    km.seed = options.seed + j;
    KMeansResult res = RunKMeans(chunk.data(), n, sub_dim, km);
    std::memcpy(book.Chunk(j), res.centroids.data(),
                k * sub_dim * sizeof(float));
  }
  return book;
}

std::unique_ptr<PqQuantizer> PqQuantizer::Train(const Dataset& train,
                                                const PqOptions& options) {
  RPQ_CHECK(!train.empty());
  Codebook book = TrainCodebooks(train.data(), train.size(), train.dim(), options);
  return std::make_unique<PqQuantizer>(std::move(book), std::nullopt);
}

PqQuantizer::PqQuantizer(Codebook codebook, std::optional<linalg::Matrix> rotation)
    : dim_(codebook.dim()), codebook_(std::move(codebook)) {
  if (rotation.has_value()) {
    RPQ_CHECK_EQ(rotation->rows(), dim_);
    RPQ_CHECK_EQ(rotation->cols(), dim_);
    rotation_t_ = rotation->Transposed();
  }
}

PqQuantizer::~PqQuantizer() = default;

void PqQuantizer::set_split_model(std::unique_ptr<SplitPqModel> split) {
  if (split != nullptr) {
    RPQ_CHECK_EQ(split->num_chunks(), codebook_.num_chunks());
    RPQ_CHECK_EQ(split->sub_dim(), codebook_.sub_dim());
    RPQ_CHECK_EQ(codebook_.num_centroids(), size_t{256});
  }
  split_ = std::move(split);
}

linalg::Matrix PqQuantizer::rotation() const {
  RPQ_CHECK(rotation_t_.has_value());
  return rotation_t_->Transposed();
}

void PqQuantizer::Rotate(const float* vec, float* out) const {
  if (rotation_t_.has_value()) {
    linalg::MatVecTrans(*rotation_t_, vec, out);  // (R^T)^T x = R x
  } else {
    std::memcpy(out, vec, dim_ * sizeof(float));
  }
}

void PqQuantizer::Encode(const float* vec, uint8_t* code) const {
  std::vector<float> rot(dim_);
  Rotate(vec, rot.data());
  size_t sub_dim = codebook_.sub_dim();
  for (size_t j = 0; j < codebook_.num_chunks(); ++j) {
    code[j] = static_cast<uint8_t>(NearestCentroid(
        rot.data() + j * sub_dim, codebook_.Chunk(j), codebook_.num_centroids(),
        sub_dim));
  }
}

void PqQuantizer::Decode(const uint8_t* code, float* out) const {
  size_t sub_dim = codebook_.sub_dim();
  std::vector<float> rot(dim_);
  for (size_t j = 0; j < codebook_.num_chunks(); ++j) {
    std::memcpy(rot.data() + j * sub_dim, codebook_.Word(j, code[j]),
                sub_dim * sizeof(float));
  }
  if (rotation_t_.has_value()) {
    // R is orthonormal: original = R^T * rotated.
    linalg::MatVec(*rotation_t_, rot.data(), out);
  } else {
    std::memcpy(out, rot.data(), dim_ * sizeof(float));
  }
}

void PqQuantizer::BuildLookupTable(const float* query, float* table) const {
  std::vector<float> rot(dim_);
  Rotate(query, rot.data());
  size_t sub_dim = codebook_.sub_dim();
  size_t k = codebook_.num_centroids();
  for (size_t j = 0; j < codebook_.num_chunks(); ++j) {
    // Fused table build: one kernel call scans all K codewords of chunk j.
    simd::L2ToMany(rot.data() + j * sub_dim, codebook_.Chunk(j), k, sub_dim,
                   table + j * k);
  }
}

size_t PqQuantizer::ModelSizeBytes() const {
  size_t bytes = codebook_.num_floats() * sizeof(float);
  if (rotation_t_.has_value()) bytes += dim_ * dim_ * sizeof(float);
  return bytes;
}

double PqQuantizer::Distortion(const Dataset& data) const {
  RPQ_CHECK_EQ(data.dim(), dim_);
  std::vector<uint8_t> code(code_size());
  std::vector<float> rec(dim_);
  double acc = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    Encode(data[i], code.data());
    Decode(code.data(), rec.data());
    acc += SquaredL2(data[i], rec.data(), dim_);
  }
  return data.empty() ? 0.0 : acc / static_cast<double>(data.size());
}

}  // namespace rpq::quant
