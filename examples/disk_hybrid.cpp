// Hybrid-scenario example: a DiskANN-style deployment where only compact
// codes + codebook stay in RAM and the graph + full vectors live on a
// (simulated) SSD. Mirrors §7 of the paper, "integration of RPQ for hybrid
// scenario", and reports the memory/disk split and I/O behaviour.
//
//   $ ./disk_hybrid
#include <cstdio>

#include "core/rpq.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "eval/recall.h"
#include "graph/vamana.h"

int main() {
  rpq::Dataset base, queries;
  rpq::synthetic::MakeBaseAndQueries("bigann", 5000, 25, 7, &base, &queries);

  rpq::graph::VamanaOptions vopt;
  vopt.degree = 32;
  vopt.build_beam = 64;
  auto graph = rpq::graph::BuildVamana(base, vopt);

  rpq::core::RpqTrainOptions topt;
  topt.m = 16;
  topt.k = 64;
  topt.epochs = 2;
  topt.triplets_per_epoch = 256;
  auto trained = rpq::core::TrainRpq(base, graph, topt);

  // A 4 KiB-sector device with 100 us random reads (NVMe-class).
  rpq::disk::DiskIndexOptions dopt;
  dopt.ssd.read_latency_seconds = 1e-4;
  auto index = rpq::disk::DiskIndex::Build(base, graph, *trained.quantizer,
                                           dopt);
  std::printf("memory-resident: %.1f KB   on-disk: %.1f MB  (%.1fx smaller "
              "RAM)\n",
              index->MemoryBytes() / 1024.0, index->DeviceBytes() / 1e6,
              static_cast<double>(index->DeviceBytes()) /
                  index->MemoryBytes());

  auto gt = rpq::ComputeGroundTruth(base, queries, 10);
  // Sequential baseline vs the async wave path: a second index on the same
  // device, built with 8-wide waves and readahead. At queue depth 8 an
  // 8-wide wave overlaps what the sync loop serializes, and readahead turns
  // repeat expansions of speculated blocks into zero-cost cache hits.
  rpq::disk::DiskIndexOptions async_opt = dopt;
  async_opt.io_width = 8;
  async_opt.readahead = 4;
  auto async_index = rpq::disk::DiskIndex::Build(
      base, graph, *trained.quantizer, async_opt);
  struct Config {
    const char* name;
    const rpq::disk::DiskIndex* index;
  };
  const Config configs[] = {
      {"sync (io_width=1)", index.get()},
      {"async (io_width=8, readahead=4)", async_index.get()},
  };
  for (const Config& cfg : configs) {
    std::printf("-- %s --\n", cfg.name);
    for (size_t beam : {16u, 32u, 64u}) {
      std::vector<std::vector<rpq::Neighbor>> results(queries.size());
      size_t reads = 0;
      double io_ms = 0;
      for (size_t q = 0; q < queries.size(); ++q) {
        auto out = cfg.index->Search(queries[q], 10, {beam, 10});
        results[q] = out.results;
        reads += out.io.reads;
        io_ms += out.io.simulated_seconds * 1e3;
      }
      std::printf("beam=%3zu  recall@10=%.3f  disk reads/query=%.1f  "
                  "io/query=%.2f ms\n",
                  beam, rpq::eval::MeanRecallAtK(results, gt, 10),
                  static_cast<double>(reads) / queries.size(),
                  io_ms / queries.size());
    }
  }
  return 0;
}
