// Figure 12: scalability of HNSW-PQ vs HNSW-RPQ across base-set scales
// (in-memory scenario). As in the paper, each bar reports QPS at a fixed
// beam width together with the Recall@10 it achieves (annotated above the
// bars in the original figure).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rpq::bench;
  auto args = Args::Parse(argc, argv);
  std::vector<size_t> scales = args.fast
                                   ? std::vector<size_t>{1000, 3000}
                                   : std::vector<size_t>{2000, 6000, 12000};

  std::printf("=== Figure 12: scalability, in-memory (wall QPS with achieved "
              "Recall@10) ===\n");
  for (const char* name : {"bigann", "deep"}) {
    std::printf("[%s]\n%-10s %22s %22s\n", name, "scale", "HNSW-PQ",
                "HNSW-RPQ");
    for (size_t n : scales) {
      Args a = args;
      a.n = n;
      a.queries = 80;
      Profile p = GetProfile(name, a);
      DatasetBundle b = MakeBundle(name, p, args.seed);
      auto hnsw = rpq::graph::HnswIndex::Build(b.base, p.hnsw);
      auto graph = hnsw->Flatten();
      auto pq = rpq::quant::PqQuantizer::Train(b.base, p.pq);
      std::fprintf(stderr, "[%s] n=%zu: RPQ...\n", name, n);
      auto rpq_res = rpq::core::TrainRpq(b.base, graph, p.rpq);

      const size_t beam = 48;  // fixed operating point across scales
      auto eval_one = [&](const rpq::quant::VectorQuantizer& q) {
        auto index = rpq::core::MemoryIndex::Build(b.base, graph, q);
        auto curve = rpq::eval::SweepBeamWidths(
            rpq::serve::MemoryIndexService(*index), rpq::serve::QuerySpec{},
            b.queries, b.gt, {beam});
        return curve[0];
      };
      auto pt_pq = eval_one(*pq);
      auto pt_rpq = eval_one(*rpq_res.quantizer);
      std::printf("%-10zu %12.1f (r=%4.0f%%) %12.1f (r=%4.0f%%)\n", n,
                  pt_pq.wall_qps, pt_pq.recall * 100, pt_rpq.wall_qps,
                  pt_rpq.recall * 100);
    }
  }
  return 0;
}
