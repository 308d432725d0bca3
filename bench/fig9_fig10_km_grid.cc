// Figures 9 & 10: the K x M grid. For each (K, M) configuration, RPQ is
// trained and evaluated; Figure 9 reports hybrid-scenario wall QPS and
// simulated disk time per query at Recall@10=95%, Figure 10 the in-memory
// upper-limit Recall@10. BigANN/Deep
// sweep M in {8,16,32}; Gist (960-dim) sweeps M in {60,120,240} as in the
// paper. Rows are K in {64,128,256}.
#include "bench_common.h"

namespace rpq::bench {
namespace {

struct GridResult {
  double hybrid_qps[3][3];
  double hybrid_io_ms[3][3];
  double mem_recall[3][3];
};

GridResult RunGrid(const std::string& name, const Args& args) {
  Profile p = GetProfile(name, args);
  // The grid retrains RPQ 9 times; shrink the slice to keep single-core
  // runtime sane (relative trends across the grid are unaffected).
  p.n_base = std::min(p.n_base, name == "gist" ? size_t{800} : size_t{3000});
  p.n_query = std::min(p.n_query, size_t{60});
  DatasetBundle b = MakeBundle(name, p, args.seed);
  auto graph = rpq::graph::BuildVamana(b.base, p.vamana);
  auto hnsw = rpq::graph::HnswIndex::Build(b.base, p.hnsw);
  auto hgraph = hnsw->Flatten();

  const size_t ks[3] = {64, 128, 256};
  const size_t ms_small[3] = {8, 16, 32};
  const size_t ms_gist[3] = {60, 120, 240};
  const size_t* ms = (name == "gist") ? ms_gist : ms_small;

  GridResult out{};
  for (int ki = 0; ki < 3; ++ki) {
    for (int mi = 0; mi < 3; ++mi) {
      auto opt = p.rpq;
      opt.k = ks[ki];
      opt.m = ms[mi];
      opt.epochs = 1;
      opt.triplets_per_epoch = 192;
      std::fprintf(stderr, "[%s] K=%zu M=%zu...\n", name.c_str(), ks[ki],
                   ms[mi]);
      auto res = rpq::core::TrainRpq(b.base, graph, opt);

      auto disk_index =
          rpq::disk::DiskIndex::Build(b.base, graph, *res.quantizer);
      auto disk_curve = rpq::eval::SweepBeamWidths(
          rpq::serve::DiskIndexService(*disk_index), rpq::serve::QuerySpec{},
          b.queries, b.gt, DefaultBeams());
      out.hybrid_qps[ki][mi] = rpq::eval::AtRecall(
          disk_curve, 0.95, &rpq::eval::OperatingPoint::wall_qps);
      out.hybrid_io_ms[ki][mi] = rpq::eval::AtRecall(
          disk_curve, 0.95, &rpq::eval::OperatingPoint::mean_io_ms);

      auto mem_index =
          rpq::core::MemoryIndex::Build(b.base, hgraph, *res.quantizer);
      auto mem_curve = rpq::eval::SweepBeamWidths(
          rpq::serve::MemoryIndexService(*mem_index), rpq::serve::QuerySpec{},
          b.queries, b.gt, {256});
      out.mem_recall[ki][mi] = mem_curve[0].recall;  // upper-limit recall
    }
  }
  return out;
}

void PrintGrid(const std::string& title, const std::string& name,
               const double grid[3][3], const size_t* ms, int decimals) {
  std::printf("%s [%s]\n%6s %10zu %10zu %10zu\n", title.c_str(), name.c_str(),
              "K\\M", ms[0], ms[1], ms[2]);
  const size_t ks[3] = {64, 128, 256};
  for (int ki = 0; ki < 3; ++ki) {
    std::printf("%6zu", ks[ki]);
    for (int mi = 0; mi < 3; ++mi) {
      std::printf(" %10.*f", decimals, grid[ki][mi]);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace rpq::bench

int main(int argc, char** argv) {
  using namespace rpq::bench;
  auto args = Args::Parse(argc, argv);
  const size_t ms_small[3] = {8, 16, 32};
  const size_t ms_gist[3] = {60, 120, 240};
  for (const char* name : {"bigann", "deep", "gist"}) {
    auto res = RunGrid(name, args);
    const size_t* ms = std::string(name) == "gist" ? ms_gist : ms_small;
    std::printf("\n=== Figure 9: hybrid @ Recall@10=95%% ===\n");
    PrintGrid("wall QPS grid", name, res.hybrid_qps, ms, 1);
    PrintGrid("sim io ms/q grid", name, res.hybrid_io_ms, ms, 3);
    std::printf("=== Figure 10: in-memory Recall@10 upper limit ===\n");
    PrintGrid("Recall grid", name, res.mem_recall, ms, 3);
  }
  return 0;
}
