// Figure 8: effect of the positive/negative sampling ratio k_pos/k_neg on
// QPS (at the 95% Recall@10 operating point for the hybrid scenario and at
// the in-memory point), on BigANN-like and Deep-like data. The paper finds a
// sweet spot for ratios in [0.2, 0.5]. The hybrid point reports wall QPS and
// simulated disk time per query in separate columns.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rpq::bench;
  using Point = rpq::eval::OperatingPoint;
  auto args = Args::Parse(argc, argv);

  const double ratios[] = {0.02, 0.2, 0.5, 0.8, 0.98};
  const size_t total = 36;  // k_pos + k_neg kept fixed while the ratio moves

  std::printf("=== Figure 8: effect of k_pos/k_neg ===\n");
  for (const char* name : {"bigann", "deep"}) {
    Profile p = GetProfile(name, args);
    DatasetBundle b = MakeBundle(name, p, args.seed);
    auto graph = rpq::graph::BuildVamana(b.base, p.vamana);
    auto hnsw = rpq::graph::HnswIndex::Build(b.base, p.hnsw);
    auto hgraph = hnsw->Flatten();

    std::printf("[%s]\n%-8s %16s %16s %18s\n", name, "ratio",
                "hybrid wall QPS", "hybrid sim io ms", "in-memory wall QPS");
    for (double r : ratios) {
      auto opt = p.rpq;
      opt.k_pos = std::max<size_t>(1, static_cast<size_t>(total * r / (1 + r)));
      opt.k_neg = std::max<size_t>(1, total - opt.k_pos);
      std::fprintf(stderr, "[%s] ratio %.2f (k_pos=%zu k_neg=%zu)...\n", name,
                   r, opt.k_pos, opt.k_neg);
      auto res = rpq::core::TrainRpq(b.base, graph, opt);

      auto disk_index = rpq::disk::DiskIndex::Build(b.base, graph,
                                                    *res.quantizer);
      auto disk_curve = rpq::eval::SweepBeamWidths(
          rpq::serve::DiskIndexService(*disk_index), rpq::serve::QuerySpec{},
          b.queries, b.gt, DefaultBeams());
      double hybrid_qps =
          rpq::eval::AtRecall(disk_curve, 0.95, &Point::wall_qps);
      double hybrid_io =
          rpq::eval::AtRecall(disk_curve, 0.95, &Point::mean_io_ms);

      auto res_h = rpq::core::TrainRpq(b.base, hgraph, opt);
      auto mem_index =
          rpq::core::MemoryIndex::Build(b.base, hgraph, *res_h.quantizer);
      auto mem_curve = rpq::eval::SweepBeamWidths(
          rpq::serve::MemoryIndexService(*mem_index), rpq::serve::QuerySpec{},
          b.queries, b.gt, DefaultBeams());
      double mem_qps = rpq::eval::AtRecall(mem_curve, 0.75, &Point::wall_qps);

      std::printf("%-8.2f %16.1f %16.3f %18.1f\n", r, hybrid_qps, hybrid_io,
                  mem_qps);
    }
  }
  return 0;
}
