// Figure 6: QPS and Hops vs Recall@10 in the in-memory scenario with HNSW as
// the PG, comparing PQ / OPQ / L&C / Catalyst / RPQ (codes-only search; no
// full-precision rerank except L&C's refined codes).
#include "bench_common.h"

namespace rpq::bench {
namespace {

void RunDataset(const std::string& name, const Args& args) {
  Profile p = GetProfile(name, args);
  DatasetBundle b = MakeBundle(name, p, args.seed);
  std::fprintf(stderr, "[%s] building HNSW (n=%zu)...\n", name.c_str(),
               b.base.size());
  auto hnsw = graph::HnswIndex::Build(b.base, p.hnsw);
  auto graph = hnsw->Flatten();
  QuantizerSet qs = TrainAll(b, graph, p);

  quant::LinkCodeOptions lco;
  lco.pq = p.pq;
  lco.num_links = 8;  // paper: L = 8
  std::fprintf(stderr, "[%s] building L&C...\n", name.c_str());
  auto lc = quant::LinkCodeIndex::Build(b.base, graph, lco);

  std::printf("\n=== Figure 6 [HNSW, %s]  (n=%zu, q=%zu) ===\n", name.c_str(),
              b.base.size(), b.queries.size());

  // L&C navigates on ADC like the others, then re-scores every beam
  // survivor with the Link&Code reconstructions: a rerank width past the
  // widest swept beam is capped at each beam.
  auto run = [&](const std::string& label, const quant::VectorQuantizer& q,
                 const quant::LinkCodeIndex* linkcode) {
    auto index = core::MemoryIndex::Build(b.base, graph, q);
    serve::QuerySpec spec;
    if (linkcode != nullptr) {
      index->set_linkcode(linkcode);
      spec.rerank = DefaultBeams().back();
      spec.rerank_mode = refine::RerankMode::kLinkCode;
    }
    auto curve = eval::SweepBeamWidths(serve::MemoryIndexService(*index), spec,
                                       b.queries, b.gt, DefaultBeams());
    eval::PrintCurve(label, curve);
    return curve;
  };

  auto c_pq = run("HNSW-PQ", *qs.pq, nullptr);
  auto c_opq = run("HNSW-OPQ", *qs.opq, nullptr);
  auto c_lc = run("L&C", lc->pq(), lc.get());
  auto c_cat = run("HNSW-Catalyst", *qs.catalyst, nullptr);
  auto c_rpq = run("HNSW-RPQ", *qs.rpq.quantizer, nullptr);

  std::printf("--- max Recall@10 reached [%s] ---\n", name.c_str());
  auto max_recall = [](const std::vector<eval::OperatingPoint>& c) {
    double r = 0;
    for (const auto& pt : c) r = std::max(r, pt.recall);
    return r;
  };
  std::printf("PQ=%.3f OPQ=%.3f L&C=%.3f Catalyst=%.3f RPQ=%.3f\n",
              max_recall(c_pq), max_recall(c_opq), max_recall(c_lc),
              max_recall(c_cat), max_recall(c_rpq));
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
