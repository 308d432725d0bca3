#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/diff_quantizer.h"
#include "core/feature_extractor.h"
#include "core/memory_index.h"
#include "core/trainer.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "graph/beam_search.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "quant/kmeans.h"
#include "quant/pq.h"
#include "quant/split.h"
#include "serve/ivf_service.h"

namespace rpqbench {

using rpq::Dataset;
using rpq::Timer;

namespace {

constexpr size_t kQueries = 1000;
constexpr size_t kTopK = 10;
constexpr const char* kProfile = "sift";  // sift-like 128-d mixture
// Fixes the corpus, and with it the indexed base; --seed picks the queries.
constexpr uint64_t kCorpusSeed = 20240501;

// Disjoint row sets of the given sizes drawn from one sift-like corpus
// generated with a fixed seed. The first set, the indexed base, is the
// corpus's first rows on every run; `seed` picks the other sets (queries,
// insert pool) from a remainder twice their size. Runs with different seeds
// thus search one index with different queries from the same distribution.
// A base drawn per seed builds a different graph each time: the disk
// workload's work per query then moved by up to 9% between seeds (hops
// 110-120 at beam 96), so its timing spread measured the input rather than
// the program. Over a fixed base it moves by under 1% (hops 110.8-111.4).
std::vector<Dataset> DrawSets(uint64_t seed, const std::vector<size_t>& sizes) {
  const size_t base = sizes[0];
  const size_t others =
      std::accumulate(sizes.begin() + 1, sizes.end(), size_t{0});
  const Dataset corpus =
      rpq::synthetic::MakeByName(kProfile, base + 2 * others, kCorpusSeed);
  std::vector<uint32_t> rest(2 * others);
  std::iota(rest.begin(), rest.end(), static_cast<uint32_t>(base));
  rpq::Rng rng(seed);
  rng.Shuffle(&rest);
  std::vector<Dataset> sets{corpus.Slice(0, base)};
  auto at = rest.begin();
  for (size_t i = 1; i < sizes.size(); ++i) {
    sets.push_back(corpus.Gather(std::vector<uint32_t>(at, at + sizes[i])));
    at += sizes[i];
  }
  return sets;
}

// Seconds taken by fn(), recorded under `key`.
void TimeLayer(LayerValues* layers, const char* key,
               const std::function<void()>& fn) {
  Timer t;
  fn();
  (*layers)[key] = t.ElapsedSeconds();
}

size_t NumEdges(const rpq::graph::ProximityGraph& g) {
  size_t edges = 0;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    edges += g.Neighbors(v).size();
  }
  return edges;
}

// Per-query means of the SearchStats of a serial search pass.
class GraphTally {
 public:
  void Add(const rpq::graph::SearchStats& s) {
    hops_ += s.hops;
    comps_ += s.dist_comps;
    visited_ += s.visited_hits;
  }
  void Write(size_t queries, LayerValues* layers) const {
    const double n = static_cast<double>(queries);
    (*layers)["graph.hops_per_query"] = hops_ / n;
    (*layers)["graph.dist_comps_per_query"] = comps_ / n;
    (*layers)["graph.visited_hits_per_query"] = visited_ / n;
  }

 private:
  double hops_ = 0, comps_ = 0, visited_ = 0;
};

rpq::graph::VamanaOptions GraphOptions() {
  rpq::graph::VamanaOptions opt;
  opt.degree = 32;
  opt.build_beam = 64;
  return opt;
}

// The graph workloads serve a static index: no insert phase.
class StaticWorkload : public Workload {
 public:
  uint32_t Insert(size_t) override { return 0; }
  size_t CountMissingInserts(const std::vector<uint32_t>&) const override {
    return 0;
  }
};

// ------------------------------------------------------------- mem_rpq64 ---
// Vamana + RPQ (m = 64, K = 256, one epoch) + float-ADC in-memory search.
class MemRpq64 : public StaticWorkload {
 public:
  const char* why() const override {
    return "the paper's method end to end: RPQ training, then float-ADC graph "
           "search whose query time splits between LUT build and the beam";
  }

  void MakeData(uint64_t seed) override {
    auto sets = DrawSets(seed, {kBase, kQueries});
    base_ = std::move(sets[0]);
    queries_ = std::move(sets[1]);
  }

  void Setup(LayerValues* layers) override {
    service_.reset();
    index_.reset();
    quantizer_.reset();
    TimeLayer(layers, "graph.build_s",
              [&] { graph_ = rpq::graph::BuildVamana(base_, GraphOptions()); });
    TimeLayer(layers, "core.train_s", [&] {
      quantizer_ = rpq::core::TrainRpq(base_, graph_, TrainOptions()).quantizer;
    });
    TimeLayer(layers, "core.index_build_s", [&] {
      rpq::core::MemoryIndexOptions opt;
      opt.fastscan_layout = false;  // K = 256 has no 4-bit layout anyway
      index_ = rpq::core::MemoryIndex::Build(base_, graph_, *quantizer_, opt);
    });
    service_ = std::make_unique<rpq::serve::MemoryIndexService>(*index_);
  }

  const rpq::serve::SearchService& service() const override {
    return *service_;
  }

  rpq::serve::QuerySpec Spec(const float* query) const override {
    rpq::serve::QuerySpec q;
    q.query = query;
    q.k = kTopK;
    q.beam_width = kBeam;
    return q;
  }

  double AdjacencyBytesPerVector() const override {
    return 4.0 * NumEdges(graph_) / base_.size();
  }
  double BytesPerVector() const override {
    return static_cast<double>(index_->MemoryBytes()) / base_.size() +
           AdjacencyBytesPerVector();
  }
  double CodeBytesPerVector() const override { return quantizer_->code_size(); }

  // The training steps TrainRpq runs, each called on its own with the
  // trainer's option values, so set-up time can be attributed.
  void ExtraLayers(LayerValues* layers) const override {
    const rpq::core::RpqTrainOptions opt = TrainOptions();
    rpq::core::DiffQuantizerOptions dopt;
    dopt.m = opt.m;
    dopt.k = opt.k;
    dopt.rotation_block = opt.rotation_block;
    dopt.gumbel_tau = opt.gumbel_tau;
    dopt.straight_through = opt.straight_through;
    dopt.seed = opt.seed;
    rpq::core::DiffQuantizer dq(base_.dim(), dopt);
    TimeLayer(layers, "quant.kmeans_init_s", [&] { dq.InitCodebooks(base_); });
    TimeLayer(layers, "quant.encode_s",
              [&] { (void)quantizer_->EncodeDataset(base_); });

    constexpr size_t kVectors = 256;
    rpq::Rng rng(opt.seed);
    rpq::core::GradBuffer grads = dq.MakeGradBuffer();
    rpq::core::ForwardResult fwd;
    Timer t;
    for (size_t i = 0; i < kVectors; ++i) {
      dq.Forward(base_[i], &rng, true, &fwd);
      dq.Backward(base_[i], fwd, fwd.quantized.data(), &grads);
    }
    (*layers)["core.fwd_bwd_us"] = t.ElapsedMicros() / kVectors;

    rpq::core::NeighborhoodSamplingOptions nopt;
    nopt.n_hops = opt.n_hops;
    nopt.k_pos = opt.k_pos;
    nopt.k_neg = opt.k_neg;
    rpq::core::RoutingSamplingOptions ropt;
    ropt.num_queries = opt.routing_queries_per_epoch;
    ropt.beam_width = opt.routing_beam_width;
    ropt.max_steps_per_query = opt.max_steps_per_query;
    ropt.seed = opt.seed;
    Dataset routing_queries;
    t.Reset();
    (void)rpq::core::SampleNeighborhoodTriplets(
        graph_, base_, opt.triplets_per_epoch, nopt, &rng);
    (void)rpq::core::SampleRoutingFeatures(graph_, base_, *quantizer_,
                                           index_->codes(), ropt,
                                           &routing_queries);
    (*layers)["core.features_ms"] = t.ElapsedMillis();

    // SearchStats of a serial pass through MemoryIndex::Search.
    GraphTally graph;
    for (size_t q = 0; q < queries_.size(); ++q) {
      graph.Add(index_->Search(queries_[q], kTopK, {kBeam, kTopK, {}}).stats);
    }
    graph.Write(queries_.size(), layers);
  }

 private:
  static constexpr size_t kBase = 2000;
  static constexpr size_t kBeam = 64;

  static rpq::core::RpqTrainOptions TrainOptions() {
    rpq::core::RpqTrainOptions opt;
    opt.m = 64;
    opt.k = 256;
    opt.epochs = 1;
    opt.triplets_per_epoch = 64;
    opt.routing_queries_per_epoch = 4;
    return opt;
  }

  rpq::graph::ProximityGraph graph_;
  std::unique_ptr<rpq::quant::PqQuantizer> quantizer_;
  std::unique_ptr<rpq::core::MemoryIndex> index_;
  std::unique_ptr<rpq::serve::MemoryIndexService> service_;
};

// ------------------------------------------------------- disk_pq32x4_qd8 ---
// Vamana + 4-bit PQ (m = 32) + hybrid DiskIndex with async waves.
class DiskPq32x4Qd8 : public StaticWorkload {
 public:
  const char* why() const override {
    return "the only workload with simulated device time: async I/O waves, "
           "readahead cache, FastScan neighbor blocks and exact rerank";
  }

  void MakeData(uint64_t seed) override {
    auto sets = DrawSets(seed, {kBase, kQueries});
    base_ = std::move(sets[0]);
    queries_ = std::move(sets[1]);
  }

  void Setup(LayerValues* layers) override {
    service_.reset();
    index_.reset();
    quantizer_.reset();
    TimeLayer(layers, "graph.build_s",
              [&] { graph_ = rpq::graph::BuildVamana(base_, GraphOptions()); });
    TimeLayer(layers, "quant.train_s", [&] {
      rpq::quant::PqOptions opt;
      opt.m = 32;
      opt.nbits = 4;
      quantizer_ = rpq::quant::PqQuantizer::Train(base_, opt);
    });
    TimeLayer(layers, "disk.index_build_s", [&] {
      rpq::disk::DiskIndexOptions opt;
      opt.ssd.queue_depth = 8;
      opt.io_width = 8;
      opt.readahead = 4;
      index_ = rpq::disk::DiskIndex::Build(base_, graph_, *quantizer_, opt);
    });
    service_ = std::make_unique<rpq::serve::DiskIndexService>(*index_);
  }

  const rpq::serve::SearchService& service() const override {
    return *service_;
  }

  rpq::serve::QuerySpec Spec(const float* query) const override {
    rpq::serve::QuerySpec q;
    q.query = query;
    q.k = kTopK;
    q.beam_width = kBeam;
    return q;
  }

  // The adjacency lives on the simulated device, not in resident memory.
  double AdjacencyBytesPerVector() const override {
    return 4.0 * NumEdges(graph_) / base_.size();
  }
  double BytesPerVector() const override {
    return static_cast<double>(index_->MemoryBytes()) / base_.size();
  }
  double CodeBytesPerVector() const override { return quantizer_->code_size(); }

  // SearchStats and IoStats of a serial pass through DiskIndex::Search.
  void ExtraLayers(LayerValues* layers) const override {
    GraphTally graph;
    rpq::disk::IoStats io;
    for (size_t q = 0; q < queries_.size(); ++q) {
      auto r = index_->Search(queries_[q], kTopK, {kBeam, kTopK, {}});
      graph.Add(r.stats);
      io.reads += r.io.reads;
      io.io_waves += r.io.io_waves;
      io.retries += r.io.retries;
      io.prefetch_issued += r.io.prefetch_issued;
      io.prefetch_hits += r.io.prefetch_hits;
    }
    graph.Write(queries_.size(), layers);
    const double n = static_cast<double>(queries_.size());
    (*layers)["disk.reads_per_query"] = io.reads / n;
    (*layers)["disk.io_waves_per_query"] = io.io_waves / n;
    (*layers)["disk.retries_per_query"] = io.retries / n;
    (*layers)["disk.prefetch_hit_ratio"] =
        io.prefetch_issued > 0
            ? static_cast<double>(io.prefetch_hits) / io.prefetch_issued
            : 0.0;
  }

 private:
  static constexpr size_t kBase = 10000;
  static constexpr size_t kBeam = 96;

  rpq::graph::ProximityGraph graph_;
  std::unique_ptr<rpq::quant::PqQuantizer> quantizer_;
  std::unique_ptr<rpq::disk::DiskIndex> index_;
  std::unique_ptr<rpq::serve::DiskIndexService> service_;
};

// --------------------------------------------------------- ivf100k_mixed ---
// Residual IVF (nlist 256) + K = 256 split PQ (m = 16) + exact rerank; a
// 90/10 search/insert phase grows it by the pool before the timed searches.
class Ivf100kMixed : public Workload {
 public:
  const char* why() const override {
    return "the ivf layer two ways: 90/10 search/insert through the "
           "writer-priority lock, then flat scans of a 100k index larger than "
           "L2; no graph";
  }

  void MakeData(uint64_t seed) override {
    auto sets = DrawSets(seed, {kBase, kPool, kQueries});
    base_ = std::move(sets[0]);
    pool_ = std::move(sets[1]);
    queries_ = std::move(sets[2]);
  }

  void Setup(LayerValues* layers) override {
    service_.reset();
    index_.reset();
    quantizer_.reset();
    const rpq::ivf::IvfOptions opt = IndexOptions();
    std::vector<float> centroids;
    TimeLayer(layers, "ivf.coarse_s",
              [&] { centroids = rpq::ivf::IvfIndex::TrainCoarse(base_, opt); });
    TimeLayer(layers, "quant.train_s", [&] {
      rpq::quant::PqOptions pq;
      pq.m = 16;
      pq.nbits = 8;
      quantizer_ = rpq::quant::TrainSplitPq(Residuals(centroids), pq);
    });
    TimeLayer(layers, "ivf.index_build_s", [&] {
      index_ = rpq::ivf::IvfIndex::BuildWithCentroids(
          base_, std::move(centroids), *quantizer_, opt);
    });
    service_ = std::make_unique<rpq::serve::IvfService>(*index_, kRerank);
  }

  const rpq::serve::SearchService& service() const override {
    return *service_;
  }

  rpq::serve::QuerySpec Spec(const float* query) const override {
    rpq::serve::QuerySpec q;
    q.query = query;
    q.k = kTopK;
    q.beam_width = kNprobe;  // nprobe for the IVF backend
    q.rerank = kRerank;
    return q;
  }

  size_t pool_size() const override { return pool_.size(); }
  uint32_t Insert(size_t pool_row) override {
    return index_->Insert(pool_[pool_row]);
  }

  // An inserted row is missing when the index did not grow by it, its id is
  // out of range or duplicated, or a search for the row itself (its own
  // cell probed, exact rerank) does not return that id.
  size_t CountMissingInserts(const std::vector<uint32_t>& ids) const override {
    const size_t total = base_.size() + ids.size();
    if (index_->size() != total) return ids.size();
    std::unordered_set<uint32_t> seen;
    rpq::ivf::IvfSearchOptions opt;
    opt.nprobe = 1;
    opt.rerank = kRerank;
    size_t missing = 0;
    for (size_t row = 0; row < ids.size(); ++row) {
      const uint32_t id = ids[row];
      if (id < base_.size() || id >= total || !seen.insert(id).second) {
        ++missing;
        continue;
      }
      const auto r = index_->Search(pool_[row], kTopK, opt);
      const bool found =
          std::any_of(r.results.begin(), r.results.end(),
                      [&](const rpq::Neighbor& n) { return n.id == id; });
      if (!found) ++missing;
    }
    return missing;
  }

  double BytesPerVector() const override {
    return static_cast<double>(index_->MemoryBytes()) / index_->size();
  }
  double CodeBytesPerVector() const override { return quantizer_->code_size(); }

  // IvfStats of a serial pass through IvfIndex::Search.
  void ExtraLayers(LayerValues* layers) const override {
    rpq::ivf::IvfSearchOptions opt;
    opt.nprobe = kNprobe;
    opt.rerank = kRerank;
    double lists = 0, codes = 0;
    for (size_t q = 0; q < queries_.size(); ++q) {
      const auto r = index_->Search(queries_[q], kTopK, opt);
      lists += r.stats.lists_probed;
      codes += r.stats.codes_scanned;
    }
    const double n = static_cast<double>(queries_.size());
    (*layers)["ivf.lists_probed_per_query"] = lists / n;
    (*layers)["ivf.codes_scanned_per_query"] = codes / n;
  }

 private:
  static constexpr size_t kBase = 100000;
  static constexpr size_t kPool = 5000;
  static constexpr size_t kTrainRows = 25000;  // coarse and PQ training sample
  static constexpr size_t kNprobe = 8;
  static constexpr size_t kRerank = 50;

  static rpq::ivf::IvfOptions IndexOptions() {
    rpq::ivf::IvfOptions opt;
    opt.nlist = 256;
    opt.train_sample = kTrainRows;
    opt.store_vectors = true;  // exact rerank
    opt.residual = true;
    opt.default_nprobe = kNprobe;
    return opt;
  }

  // x - nearest centroid for the first kTrainRows base rows: the residual
  // distribution the split PQ codebooks must be trained on.
  Dataset Residuals(const std::vector<float>& centroids) const {
    const size_t dim = base_.dim();
    const size_t nlist = centroids.size() / dim;
    const size_t rows = std::min(kTrainRows, base_.size());
    Dataset resid(rows, dim);
    for (size_t i = 0; i < rows; ++i) {
      const uint32_t c =
          rpq::quant::NearestCentroid(base_[i], centroids.data(), nlist, dim);
      const float* cent = centroids.data() + size_t{c} * dim;
      for (size_t d = 0; d < dim; ++d) resid[i][d] = base_[i][d] - cent[d];
    }
    return resid;
  }

  std::unique_ptr<rpq::quant::PqQuantizer> quantizer_;
  std::unique_ptr<rpq::ivf::IvfIndex> index_;
  std::unique_ptr<rpq::serve::IvfService> service_;
};

}  // namespace

std::vector<std::vector<rpq::Neighbor>> Workload::GroundTruth(
    const std::vector<uint32_t>& inserted_ids) const {
  if (inserted_ids.empty()) {
    return rpq::ComputeGroundTruth(base_, queries_, kTopK, rpq::SharedPool());
  }
  const size_t n = base_.size(), dim = base_.dim();
  Dataset all(n + inserted_ids.size(), dim);
  std::memcpy(all.data(), base_.data(), n * dim * sizeof(float));
  std::memcpy(all[n], pool_.data(), inserted_ids.size() * dim * sizeof(float));
  auto gt = rpq::ComputeGroundTruth(all, queries_, kTopK, rpq::SharedPool());
  for (auto& row : gt) {
    for (auto& nb : row) {
      if (nb.id >= n) nb.id = inserted_ids[nb.id - n];
    }
  }
  return gt;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "mem_rpq64") return std::make_unique<MemRpq64>();
  if (name == "disk_pq32x4_qd8") return std::make_unique<DiskPq32x4Qd8>();
  if (name == "ivf100k_mixed") return std::make_unique<Ivf100kMixed>();
  return nullptr;
}

}  // namespace rpqbench
