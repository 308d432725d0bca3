// Figure 7: QPS and Hops vs Recall@10 in the in-memory scenario with NSG as
// the PG, comparing PQ / OPQ / Catalyst / RPQ.
#include "bench_common.h"

namespace rpq::bench {
namespace {

void RunDataset(const std::string& name, const Args& args) {
  Profile p = GetProfile(name, args);
  DatasetBundle b = MakeBundle(name, p, args.seed);
  std::fprintf(stderr, "[%s] building NSG (n=%zu)...\n", name.c_str(),
               b.base.size());
  auto graph = graph::BuildNsg(b.base, p.nsg);
  QuantizerSet qs = TrainAll(b, graph, p);

  std::printf("\n=== Figure 7 [NSG, %s]  (n=%zu, q=%zu) ===\n", name.c_str(),
              b.base.size(), b.queries.size());
  struct Method {
    std::string label;
    const quant::VectorQuantizer* quantizer;
  };
  std::vector<Method> methods = {
      {"NSG-PQ", qs.pq.get()},
      {"NSG-OPQ", qs.opq.get()},
      {"NSG-Catalyst", qs.catalyst.get()},
      {"NSG-RPQ", qs.rpq.quantizer.get()},
  };
  for (const auto& m : methods) {
    auto index = core::MemoryIndex::Build(b.base, graph, *m.quantizer);
    auto curve = eval::SweepBeamWidths(serve::MemoryIndexService(*index),
                                       serve::QuerySpec{}, b.queries, b.gt,
                                       DefaultBeams());
    eval::PrintCurve(m.label, curve);
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
