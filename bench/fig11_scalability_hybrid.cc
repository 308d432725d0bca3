// Figure 11: scalability of DiskANN-PQ vs DiskANN-RPQ across base-set scales
// (hybrid scenario, wall QPS and simulated disk time per query at
// Recall@10=95%). The paper's 1M/10M/100M/1B slices become geometric scales
// of the synthetic generator; what must hold is that RPQ's advantage
// persists (or grows) as the scale rises.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rpq::bench;
  auto args = Args::Parse(argc, argv);
  std::vector<size_t> scales = args.fast
                                   ? std::vector<size_t>{1000, 3000}
                                   : std::vector<size_t>{2000, 6000, 12000};

  std::printf("=== Figure 11: scalability, hybrid (@ Recall@10=95%%) ===\n");
  for (const char* name : {"bigann", "deep"}) {
    std::printf("[%s]\n%-10s %25s %25s %10s\n", name, "scale",
                "DiskANN-PQ wall QPS/io ms", "DiskANN-RPQ wall QPS/io ms",
                "speedup");
    for (size_t n : scales) {
      Args a = args;
      a.n = n;
      a.queries = 80;
      Profile p = GetProfile(name, a);
      DatasetBundle b = MakeBundle(name, p, args.seed);
      std::fprintf(stderr, "[%s] n=%zu: graph...\n", name, n);
      auto graph = rpq::graph::BuildVamana(b.base, p.vamana);
      auto pq = rpq::quant::PqQuantizer::Train(b.base, p.pq);
      std::fprintf(stderr, "[%s] n=%zu: RPQ...\n", name, n);
      auto rpq_res = rpq::core::TrainRpq(b.base, graph, p.rpq);

      auto eval_one = [&](const rpq::quant::VectorQuantizer& q) {
        auto index = rpq::disk::DiskIndex::Build(b.base, graph, q);
        return rpq::eval::SweepBeamWidths(
            rpq::serve::DiskIndexService(*index), rpq::serve::QuerySpec{},
            b.queries, b.gt, DefaultBeams());
      };
      using P = rpq::eval::OperatingPoint;
      auto c_pq = eval_one(*pq);
      auto c_rpq = eval_one(*rpq_res.quantizer);
      double q_pq = rpq::eval::AtRecall(c_pq, 0.95, &P::wall_qps);
      double q_rpq = rpq::eval::AtRecall(c_rpq, 0.95, &P::wall_qps);
      std::printf("%-10zu %16.1f / %6.3f %16.1f / %6.3f %9.2fx\n", n, q_pq,
                  rpq::eval::AtRecall(c_pq, 0.95, &P::mean_io_ms), q_rpq,
                  rpq::eval::AtRecall(c_rpq, 0.95, &P::mean_io_ms),
                  q_pq > 0 ? q_rpq / q_pq : 0.0);
    }
  }
  return 0;
}
