// Figure 4 (case study): distribution of "valuable dimensions" across
// sub-vectors before and after RPQ's adaptive vector decomposition. Following
// OPQ [27], a dimension's value is its variance (the diagonal of the data
// covariance). We print the per-chunk share of total variance and a balance
// metric (stddev of chunk energies / mean) before vs after the learned
// rotation: the rotation should spread the energy much more uniformly.
#include "bench_common.h"

namespace rpq::bench {
namespace {

std::vector<double> ChunkEnergies(const Dataset& data,
                                  const rpq::linalg::Matrix* rotation,
                                  size_t m) {
  size_t dim = data.dim();
  size_t sub = dim / m;
  std::vector<double> mean(dim, 0.0), var(dim, 0.0);
  std::vector<float> buf(dim);
  for (size_t i = 0; i < data.size(); ++i) {
    const float* row = data[i];
    if (rotation != nullptr) {
      rpq::linalg::MatVec(*rotation, row, buf.data());
      row = buf.data();
    }
    for (size_t j = 0; j < dim; ++j) mean[j] += row[j];
  }
  for (auto& v : mean) v /= data.size();
  for (size_t i = 0; i < data.size(); ++i) {
    const float* row = data[i];
    if (rotation != nullptr) {
      rpq::linalg::MatVec(*rotation, row, buf.data());
      row = buf.data();
    }
    for (size_t j = 0; j < dim; ++j) {
      double d = row[j] - mean[j];
      var[j] += d * d;
    }
  }
  std::vector<double> chunk(m, 0.0);
  double total = 0;
  for (size_t j = 0; j < dim; ++j) total += var[j];
  for (size_t c = 0; c < m; ++c) {
    for (size_t j = 0; j < sub; ++j) chunk[c] += var[c * sub + j];
    chunk[c] /= total;
  }
  return chunk;
}

double Imbalance(const std::vector<double>& chunk) {
  double mean = 0;
  for (double c : chunk) mean += c;
  mean /= chunk.size();
  double sd = 0;
  for (double c : chunk) sd += (c - mean) * (c - mean);
  return std::sqrt(sd / chunk.size()) / mean;
}

}  // namespace
}  // namespace rpq::bench

int main(int argc, char** argv) {
  using namespace rpq::bench;
  auto args = Args::Parse(argc, argv);
  std::printf("=== Figure 4: valuable-dimension balance across sub-vectors "
              "===\n");
  for (const char* name : {"sift", "deep"}) {
    Profile p = GetProfile(name, args);
    p.n_base = std::min(p.n_base, size_t{3000});
    DatasetBundle b = MakeBundle(name, p, args.seed);
    auto graph = rpq::graph::BuildVamana(b.base, p.vamana);
    std::fprintf(stderr, "[%s] training RPQ...\n", name);
    auto res = rpq::core::TrainRpq(b.base, graph, p.rpq);

    auto before = ChunkEnergies(b.base, nullptr, p.rpq.m);
    const rpq::linalg::Matrix rotation = res.quantizer->rotation();
    auto after = ChunkEnergies(b.base, &rotation, p.rpq.m);

    std::printf("[%s] share of total variance per sub-vector (M=%zu)\n", name,
                p.rpq.m);
    std::printf("%-8s", "before:");
    for (double c : before) std::printf(" %6.3f", c);
    std::printf("\n%-8s", "after: ");
    for (double c : after) std::printf(" %6.3f", c);
    std::printf("\nimbalance (stddev/mean): before=%.3f after=%.3f\n\n",
                Imbalance(before), Imbalance(after));
  }
  return 0;
}
