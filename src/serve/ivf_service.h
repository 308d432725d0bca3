// IVF backend for the serving subsystem: ivf::IvfIndex behind the same
// SearchService interface every other backend speaks, so the engine, shard
// fan-out, micro-batcher, and load generator all work over IVF unchanged.
//
// QuerySpec adaptation: `beam_width` is interpreted as nprobe — both are
// "how much of the index one query touches", so beam sweeps, the loadgen's
// knob plumbing, and eval::SweepBeamWidths drive IVF recall/QPS trade-offs
// without a parallel set of plumbing. SearchBatch routes through
// IvfIndex::SearchBatch, which scans each probed list once for ALL queries
// in the batch (multi-query LUT batching) — the batcher's amortization is
// real kernel-level sharing here, not just table-build locality.
//
// Search is const + thread-safe (the index's reader lock); Insert on the
// underlying index may interleave with serving.
#pragma once

#include "ivf/ivf_index.h"
#include "serve/search_service.h"

namespace rpq::serve {

/// IVF flat-scan backend (ivf::IvfIndex is borrowed).
class IvfService : public SearchService {
 public:
  /// `rerank` is the service-level rerank width, used when a QuerySpec does
  /// not carry its own (0 = the shared auto rule).
  explicit IvfService(const ivf::IvfIndex& index, size_t rerank = 0)
      : index_(index), rerank_(rerank) {}

  QueryResult Search(const QuerySpec& q) const override;
  void SearchBatch(const QuerySpec* qs, size_t n,
                   QueryResult* out) const override;

 private:
  ivf::IvfSearchOptions OptionsFor(const QuerySpec& q) const;

  const ivf::IvfIndex& index_;
  size_t rerank_;
};

}  // namespace rpq::serve
