// The benchmark's workloads: each generates its inputs from a seed, builds
// its index through the library's public API, and serves queries through a
// rpq::serve::SearchService.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/topk.h"
#include "data/dataset.h"
#include "serve/search_service.h"

namespace rpqbench {

/// Seconds (or other per-layer values) keyed by per-layer metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// One line: why the benchmark carries this workload.
  virtual const char* why() const = 0;

  /// Draws base, queries (and insert pool) from `seed`. Untimed.
  virtual void MakeData(uint64_t seed) = 0;
  /// Raw vectors in memory -> servable index. The caller times the whole
  /// call as set-up; `layers` receives the seconds of each layer call.
  virtual void Setup(LayerValues* layers) = 0;

  virtual const rpq::serve::SearchService& service() const = 0;
  virtual rpq::serve::QuerySpec Spec(const float* query) const = 0;

  /// Rows the insert phase adds. 0: the workload has no insert phase and
  /// its index is static, so every answer must equal the serial reference.
  virtual size_t pool_size() const { return 0; }
  /// Inserts pool row `pool_row`; returns the id the index assigned. Only
  /// called when pool_size() > 0.
  virtual uint32_t Insert(size_t pool_row) = 0;
  /// How many of the pool rows [0, ids.size()), inserted under `ids`, are
  /// missing from the final index.
  virtual size_t CountMissingInserts(
      const std::vector<uint32_t>& ids) const = 0;

  /// Ground truth over base plus pool rows [0, inserted_ids.size()), with
  /// each pool row's id translated to the one its insert returned.
  std::vector<std::vector<rpq::Neighbor>> GroundTruth(
      const std::vector<uint32_t>& inserted_ids) const;

  /// Resident query-time bytes per indexed vector, and its parts.
  virtual double BytesPerVector() const = 0;
  virtual double AdjacencyBytesPerVector() const { return 0; }
  virtual double CodeBytesPerVector() const = 0;

  /// Traced runs only: per-layer values that need extra calls into the
  /// library (training components, device accounting). Untimed by the
  /// caller; each value is measured inside.
  virtual void ExtraLayers(LayerValues* layers) const { (void)layers; }

  const rpq::Dataset& queries() const { return queries_; }
  size_t base_size() const { return base_.size(); }

 protected:
  rpq::Dataset base_;
  rpq::Dataset queries_;
  rpq::Dataset pool_;  ///< rows each round's insert phase adds
};

/// The workload registered under `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace rpqbench
