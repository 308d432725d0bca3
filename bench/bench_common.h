// Shared machinery for the per-table/figure benchmark harnesses.
//
// The paper evaluates on 1M-1B-point public datasets on a 2-socket Xeon with
// 8 V100s; this offline single-core build substitutes scaled synthetic slices
// (see DESIGN.md §3). Every harness accepts:
//   --n <base size>  --queries <count>  --seed <seed>  --fast
// so the scale can be raised on bigger machines. The *relative* behaviour of
// the compared methods — the shape of every figure — is what these harnesses
// reproduce.
#pragma once

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_index.h"
#include "core/trainer.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "eval/harness.h"
#include "eval/recall.h"
#include "graph/hnsw.h"
#include "graph/nsg.h"
#include "graph/vamana.h"
#include "quant/catalyst.h"
#include "quant/linkcode.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "serve/search_service.h"

namespace rpq::bench {

/// Command-line knobs shared by all harnesses.
struct Args {
  size_t n = 0;        // 0 = per-dataset default
  size_t queries = 0;  // 0 = per-dataset default
  uint64_t seed = 7;
  bool fast = false;

  static Args Parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* flag) -> const char* {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = next("--n")) a.n = std::strtoull(v, nullptr, 10);
      else if (const char* v2 = next("--queries"))
        a.queries = std::strtoull(v2, nullptr, 10);
      else if (const char* v3 = next("--seed"))
        a.seed = std::strtoull(v3, nullptr, 10);
      else if (std::strcmp(argv[i], "--fast") == 0)
        a.fast = true;
    }
    return a;
  }
};

/// Everything the experiments need for one dataset.
struct DatasetBundle {
  std::string name;
  Dataset base;
  Dataset queries;
  std::vector<std::vector<Neighbor>> gt;  // exact top-10
};

/// Per-dataset experiment profile: scaled sizes + method hyperparameters.
struct Profile {
  size_t n_base;
  size_t n_query;
  quant::PqOptions pq;          // shared code budget for PQ/OPQ/RPQ
  quant::OpqOptions opq;
  quant::CatalystOptions cat;
  core::RpqTrainOptions rpq;
  graph::VamanaOptions vamana;
  graph::HnswOptions hnsw;
  graph::NsgOptions nsg;
};

inline Profile GetProfile(const std::string& name, const Args& args) {
  Profile p;
  const bool gist = (name == "gist");
  p.n_base = args.n != 0 ? args.n : (gist ? 1200 : 6000);
  p.n_query = args.queries != 0 ? args.queries : (gist ? 40 : 100);
  if (args.fast) {
    p.n_base = std::min<size_t>(p.n_base, gist ? 600 : 2000);
    p.n_query = std::min<size_t>(p.n_query, 30);
  }

  // Code budget: 16 bytes/vector at K=256 (DiskANN's default regime); GIST
  // uses M=60 as in the paper's Figure 9 grid.
  p.pq.m = gist ? 60 : 16;
  p.pq.k = 256;
  p.pq.kmeans_iters = 12;
  p.pq.seed = args.seed;

  p.opq.pq = p.pq;
  p.opq.outer_iters = gist ? 1 : 4;

  p.cat.d_out = 48;  // divisible by catalyst's own M below
  p.cat.hidden = 128;
  p.cat.lambda = 0.005f;  // paper's configuration
  p.cat.epochs = args.fast ? 1 : 3;
  p.cat.batch_size = 64;
  p.cat.pq.m = 16;        // same byte budget as the other methods
  p.cat.pq.k = 256;
  p.cat.pq.kmeans_iters = 12;
  p.cat.seed = args.seed + 1;

  p.rpq.m = p.pq.m;
  p.rpq.k = p.pq.k;
  p.rpq.rotation_block = gist ? 96 : 0;
  p.rpq.epochs = args.fast ? 1 : (gist ? 1 : 2);
  p.rpq.batch_size = 16;
  p.rpq.triplets_per_epoch = gist ? 192 : 384;
  p.rpq.routing_queries_per_epoch = 24;
  p.rpq.routing_beam_width = 16;
  p.rpq.max_steps_per_query = 10;
  p.rpq.k_pos = 10;
  p.rpq.k_neg = 20;
  p.rpq.seed = args.seed + 2;

  p.vamana.degree = 32;
  p.vamana.build_beam = 64;
  p.vamana.seed = args.seed + 3;

  p.hnsw.m = 16;
  p.hnsw.ef_construction = 120;
  p.hnsw.seed = args.seed + 4;

  p.nsg.degree = 32;
  p.nsg.knn_k = 32;
  p.nsg.search_pool = 64;
  return p;
}

inline DatasetBundle MakeBundle(const std::string& name, const Profile& p,
                                uint64_t seed) {
  DatasetBundle b;
  b.name = name;
  synthetic::MakeBaseAndQueries(name, p.n_base, p.n_query, seed, &b.base,
                                &b.queries);
  b.gt = ComputeGroundTruth(b.base, b.queries, 10);
  return b;
}

/// The four quantizers compared throughout the paper, trained on `base`.
struct QuantizerSet {
  std::unique_ptr<quant::PqQuantizer> pq;
  std::unique_ptr<quant::PqQuantizer> opq;
  std::unique_ptr<quant::CatalystQuantizer> catalyst;
  core::RpqTrainResult rpq;
};

inline QuantizerSet TrainAll(const DatasetBundle& b,
                             const graph::ProximityGraph& graph,
                             const Profile& p, bool include_catalyst = true) {
  QuantizerSet qs;
  std::fprintf(stderr, "[%s] training PQ...\n", b.name.c_str());
  qs.pq = quant::PqQuantizer::Train(b.base, p.pq);
  std::fprintf(stderr, "[%s] training OPQ...\n", b.name.c_str());
  qs.opq = quant::TrainOpq(b.base, p.opq);
  if (include_catalyst) {
    std::fprintf(stderr, "[%s] training Catalyst...\n", b.name.c_str());
    qs.catalyst = quant::CatalystQuantizer::Train(b.base, p.cat);
  }
  std::fprintf(stderr, "[%s] training RPQ...\n", b.name.c_str());
  qs.rpq = core::TrainRpq(b.base, graph, p.rpq);
  return qs;
}

/// The swept beam widths, ascending. Harnesses sweep a
/// serve::MemoryIndexService or serve::DiskIndexService over them.
inline const std::vector<size_t>& DefaultBeams() {
  static const std::vector<size_t> kBeams{10, 16, 24, 32, 48, 64, 96, 128, 192};
  return kBeams;
}

}  // namespace rpq::bench
