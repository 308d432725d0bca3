// Table 6: ablation of RPQ's features/losses in the SSD-memory hybrid
// scenario. Rows: full RPQ, RPQ w/ N (neighborhood only), RPQ w/ R (routing
// only), RPQ w/ L2R (learning-to-route style path imitation). Values: wall
// QPS and simulated disk time per query at Recall@10 = 95% on each dataset.
#include <utility>

#include "bench_common.h"

namespace rpq::bench {
namespace {

// {wall QPS, simulated io ms per query} at Recall@10 = 95%.
std::pair<double, double> At95(const DatasetBundle& b,
                               const graph::ProximityGraph& graph,
                               const quant::VectorQuantizer& q) {
  auto index = disk::DiskIndex::Build(b.base, graph, q);
  auto curve = eval::SweepBeamWidths(serve::DiskIndexService(*index),
                                     serve::QuerySpec{}, b.queries, b.gt,
                                     DefaultBeams());
  return {eval::AtRecall(curve, 0.95, &eval::OperatingPoint::wall_qps),
          eval::AtRecall(curve, 0.95, &eval::OperatingPoint::mean_io_ms)};
}

}  // namespace
}  // namespace rpq::bench

int main(int argc, char** argv) {
  using namespace rpq::bench;
  auto args = Args::Parse(argc, argv);

  std::vector<std::string> names = {"bigann", "deep", "gist", "sift", "ukbench"};
  std::vector<std::vector<std::pair<double, double>>> table(
      4, std::vector<std::pair<double, double>>(names.size()));

  for (size_t d = 0; d < names.size(); ++d) {
    Profile p = GetProfile(names[d], args);
    DatasetBundle b = MakeBundle(names[d], p, args.seed);
    auto graph = rpq::graph::BuildVamana(b.base, p.vamana);

    auto full = p.rpq;  // both features, joint loss

    auto only_n = p.rpq;
    only_n.use_routing = false;

    auto only_r = p.rpq;
    only_r.use_neighborhood = false;

    auto l2r = p.rpq;
    l2r.use_neighborhood = false;
    l2r.l2r_mode = true;

    const rpq::core::RpqTrainOptions* variants[4] = {&full, &only_n, &only_r,
                                                     &l2r};
    for (size_t v = 0; v < 4; ++v) {
      std::fprintf(stderr, "[%s] variant %zu...\n", names[d].c_str(), v);
      auto res = rpq::core::TrainRpq(b.base, graph, *variants[v]);
      table[v][d] = At95(b, graph, *res.quantizer);
    }
  }

  std::printf("=== Table 6: ablation, hybrid scenario (wall QPS / sim io "
              "ms per query @ Recall@10=95%%) ===\n%-12s", "Method");
  for (const auto& n : names) std::printf(" %17s", n.c_str());
  const char* labels[4] = {"RPQ", "RPQ w/ N", "RPQ w/ R", "RPQ w/ L2R"};
  for (size_t v = 0; v < 4; ++v) {
    std::printf("\n%-12s", labels[v]);
    for (const auto& [qps, io_ms] : table[v]) {
      std::printf(" %9.1f / %5.3f", qps, io_ms);
    }
  }
  std::printf("\n");
  return 0;
}
