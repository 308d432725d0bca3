// Table 7: the same feature/loss ablation as Table 6, in-memory scenario
// (HNSW + codes only). As in the paper, each dataset uses its own Recall@10
// operating point: BigANN/Deep 75%, Sift 70%, Gist 80%, Ukbench 45%.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rpq::bench;
  auto args = Args::Parse(argc, argv);

  struct Ds {
    std::string name;
    double target;
  };
  std::vector<Ds> datasets = {{"bigann", 0.75}, {"deep", 0.75}, {"gist", 0.80},
                              {"sift", 0.70},   {"ukbench", 0.45}};
  std::vector<std::vector<double>> table(4, std::vector<double>(datasets.size()));

  for (size_t d = 0; d < datasets.size(); ++d) {
    Profile p = GetProfile(datasets[d].name, args);
    DatasetBundle b = MakeBundle(datasets[d].name, p, args.seed);
    auto hnsw = rpq::graph::HnswIndex::Build(b.base, p.hnsw);
    auto graph = hnsw->Flatten();

    auto full = p.rpq;
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
      std::fprintf(stderr, "[%s] variant %zu...\n", datasets[d].name.c_str(), v);
      auto res = rpq::core::TrainRpq(b.base, graph, *variants[v]);
      auto index = rpq::core::MemoryIndex::Build(b.base, graph, *res.quantizer);
      auto curve = rpq::eval::SweepBeamWidths(
          rpq::serve::MemoryIndexService(*index), rpq::serve::QuerySpec{},
          b.queries, b.gt, DefaultBeams());
      table[v][d] = rpq::eval::AtRecall(curve, datasets[d].target,
                                        &rpq::eval::OperatingPoint::wall_qps);
    }
  }

  std::printf("=== Table 7: ablation, in-memory scenario (wall QPS @ "
              "per-dataset Recall@10 target) ===\n%-12s", "Method");
  for (const auto& ds : datasets) {
    std::printf(" %7s@%2.0f%%", ds.name.c_str(), ds.target * 100);
  }
  const char* labels[4] = {"RPQ", "RPQ w/ N", "RPQ w/ R", "RPQ w/ L2R"};
  for (size_t v = 0; v < 4; ++v) {
    std::printf("\n%-12s", labels[v]);
    for (size_t d = 0; d < datasets.size(); ++d) {
      std::printf(" %11.1f", table[v][d]);
    }
  }
  std::printf("\n");
  return 0;
}
