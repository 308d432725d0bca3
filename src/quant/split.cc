#include "quant/split.h"

#include <cstring>

#include "common/logging.h"
#include "quant/kmeans.h"
#include "simd/simd.h"

namespace rpq::quant {
namespace {

// Materializes the 256-word product codebook Word(j, (a<<4)|b) = A[a] + B[b].
Codebook MaterializeProduct(const Codebook& a, const Codebook& b) {
  const size_t m = a.num_chunks(), sub = a.sub_dim();
  Codebook product(m, 256, sub);
  for (size_t j = 0; j < m; ++j) {
    for (size_t hi = 0; hi < 16; ++hi) {
      for (size_t lo = 0; lo < 16; ++lo) {
        float* w = product.Word(j, (hi << 4) | lo);
        const float* wa = a.Word(j, hi);
        const float* wb = b.Word(j, lo);
        for (size_t d = 0; d < sub; ++d) w[d] = wa[d] + wb[d];
      }
    }
  }
  return product;
}

}  // namespace

// The interleaved 2m x 16 float table of the exact decomposition: row 2j =
// v_j (level-2, low nibble), row 2j+1 = u_j (level-1, high nibble).
FastScanTable SplitTable(const SplitPqModel& model,
                         const float* rotated_query) {
  const size_t m = model.num_chunks(), sub = model.sub_dim();
  std::vector<float> table(2 * m * 16);
  for (size_t j = 0; j < m; ++j) {
    const float* qj = rotated_query + j * sub;
    float* vrow = table.data() + (2 * j) * 16;
    float* urow = table.data() + (2 * j + 1) * 16;
    simd::L2ToMany(qj, model.b.Chunk(j), 16, sub, vrow);
    const float qnorm = simd::SquaredNorm(qj, sub);
    for (size_t c = 0; c < 16; ++c) vrow[c] -= qnorm;
    simd::L2ToMany(qj, model.a.Chunk(j), 16, sub, urow);
  }
  return FastScanTable(table.data(), 2 * m, 16);
}

FastScanTable SplitTable(const PqQuantizer& quantizer, const float* query) {
  const SplitPqModel* model = quantizer.split_model();
  RPQ_CHECK(model != nullptr &&
            "SplitTable needs a split-trained quantizer (TrainSplitPq)");
  std::vector<float> rot(quantizer.dim());
  quantizer.Rotate(query, rot.data());
  return SplitTable(*model, rot.data());
}

void SplitPqModel::PrecomputeCross() {
  const size_t m = num_chunks(), sub = sub_dim();
  cross.assign(m * 256, 0.f);
  const auto& ops = simd::ScalarOps();  // backend-independent, see header
  for (size_t j = 0; j < m; ++j) {
    for (size_t hi = 0; hi < 16; ++hi) {
      for (size_t lo = 0; lo < 16; ++lo) {
        cross[j * 256 + ((hi << 4) | lo)] =
            2.f * ops.dot(a.Word(j, hi), b.Word(j, lo), sub);
      }
    }
  }
}

std::unique_ptr<PqQuantizer> MakeSplitQuantizer(Codebook a, Codebook b) {
  RPQ_CHECK_EQ(a.num_chunks(), b.num_chunks());
  RPQ_CHECK_EQ(a.sub_dim(), b.sub_dim());
  RPQ_CHECK_EQ(a.num_centroids(), size_t{16});
  RPQ_CHECK_EQ(b.num_centroids(), size_t{16});
  auto model = std::make_unique<SplitPqModel>();
  model->a = std::move(a);
  model->b = std::move(b);
  model->PrecomputeCross();
  auto pq = std::make_unique<PqQuantizer>(
      MaterializeProduct(model->a, model->b), std::nullopt);
  pq->set_split_model(std::move(model));
  return pq;
}

std::unique_ptr<PqQuantizer> TrainSplitPq(const Dataset& train,
                                          const PqOptions& options) {
  RPQ_CHECK(!train.empty());
  RPQ_CHECK_EQ(train.dim() % options.m, 0u);
  RPQ_CHECK(options.nbits == 8 && options.effective_k() == 256 &&
            "the split regime is K = 256 under 8-bit codes; plain 4-bit "
            "FastScan already covers K <= 16");
  RPQ_CHECK(options.m <= 128 &&
            "split tables have 2m u8 rows and FastScan caps rows at 256");
  const size_t n = train.size(), dim = train.dim(), sub = dim / options.m;
  Codebook a(options.m, 16, sub);
  Codebook b(options.m, 16, sub);

  std::vector<float> chunk(n * sub);
  std::vector<float> resid(n * sub);
  for (size_t j = 0; j < options.m; ++j) {
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(chunk.data() + i * sub, train.data() + i * dim + j * sub,
                  sub * sizeof(float));
    }
    KMeansOptions km;
    km.k = 16;
    km.max_iters = options.kmeans_iters;
    km.seed = options.seed + j;
    KMeansResult level1 = RunKMeans(chunk.data(), n, sub, km);
    std::memcpy(a.Chunk(j), level1.centroids.data(),
                16 * sub * sizeof(float));

    // Level 2 refines what level 1 left behind: cluster the within-chunk
    // residuals so A[a] + B[b] spans a 256-point grid shaped like the data.
    for (size_t i = 0; i < n; ++i) {
      const float* c = level1.centroids.data() +
                       static_cast<size_t>(level1.assignment[i]) * sub;
      for (size_t d = 0; d < sub; ++d) {
        resid[i * sub + d] = chunk[i * sub + d] - c[d];
      }
    }
    km.seed = options.seed + options.m + j;  // decorrelate from level 1
    KMeansResult level2 = RunKMeans(resid.data(), n, sub, km);
    std::memcpy(b.Chunk(j), level2.centroids.data(),
                16 * sub * sizeof(float));
  }
  return MakeSplitQuantizer(std::move(a), std::move(b));
}

}  // namespace rpq::quant
