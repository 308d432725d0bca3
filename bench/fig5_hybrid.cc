// Figure 5: QPS / Hops / Disk-I/O time vs Recall@10 in the SSD-memory hybrid
// scenario — DiskANN (Vamana graph on simulated SSD) integrated with PQ, OPQ,
// Catalyst and RPQ. Prints one trade-off curve per (dataset, method) plus the
// paper's headline row at Recall@10 = 95%. Wall-clock QPS and simulated disk
// time are separate columns: the SSD is a cost model, not a device.
#include "bench_common.h"

namespace rpq::bench {
namespace {

void RunDataset(const std::string& name, const Args& args) {
  Profile p = GetProfile(name, args);
  DatasetBundle b = MakeBundle(name, p, args.seed);
  std::fprintf(stderr, "[%s] building Vamana graph (n=%zu)...\n", name.c_str(),
               b.base.size());
  auto graph = graph::BuildVamana(b.base, p.vamana);
  QuantizerSet qs = TrainAll(b, graph, p);

  struct Method {
    std::string label;
    const quant::VectorQuantizer* quantizer;
  };
  std::vector<Method> methods = {
      {"DiskANN-PQ", qs.pq.get()},
      {"DiskANN-OPQ", qs.opq.get()},
      {"DiskANN-Catalyst", qs.catalyst.get()},
      {"DiskANN-RPQ", qs.rpq.quantizer.get()},
  };

  std::printf("\n=== Figure 5 [%s]  (n=%zu, q=%zu, M=%zu, K=%zu) ===\n",
              name.c_str(), b.base.size(), b.queries.size(), p.pq.m, p.pq.k);
  struct Headline {
    std::string label;
    double wall_qps, io_ms, hops;
  };
  std::vector<Headline> at95;
  for (const auto& m : methods) {
    auto index = disk::DiskIndex::Build(b.base, graph, *m.quantizer);
    auto curve = eval::SweepBeamWidths(serve::DiskIndexService(*index),
                                       serve::QuerySpec{}, b.queries, b.gt,
                                       DefaultBeams());
    eval::PrintCurve(m.label, curve);
    using P = eval::OperatingPoint;
    bool reached = false;
    Headline h{m.label, eval::AtRecall(curve, 0.95, &P::wall_qps, &reached),
               eval::AtRecall(curve, 0.95, &P::mean_io_ms),
               eval::AtRecall(curve, 0.95, &P::mean_hops)};
    if (!reached) h.label += " (<95%)";
    at95.push_back(h);
  }
  std::printf("--- at Recall@10=95%% [%s] ---\n%-24s %12s %14s %8s\n",
              name.c_str(), "method", "wall QPS", "sim io ms/q", "hops");
  for (const Headline& h : at95) {
    std::printf("%-24s %12.1f %14.3f %8.1f\n", h.label.c_str(), h.wall_qps,
                h.io_ms, h.hops);
  }
  const Headline& pq_row = at95[0];
  const Headline& rpq_row = at95[3];
  if (pq_row.wall_qps > 0 && pq_row.io_ms > 0) {
    std::printf("RPQ / PQ: wall QPS %.2fx, sim io ms/q %.2fx\n",
                rpq_row.wall_qps / pq_row.wall_qps,
                rpq_row.io_ms / pq_row.io_ms);
  }
}

}  // namespace
}  // namespace rpq::bench

int main(int argc, char** argv) {
  auto args = rpq::bench::Args::Parse(argc, argv);
  for (const char* name : {"bigann", "deep", "sift", "gist", "ukbench"}) {
    rpq::bench::RunDataset(name, args);
  }
  return 0;
}
