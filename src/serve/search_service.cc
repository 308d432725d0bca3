#include "serve/search_service.h"

#include "common/distance.h"
#include "obs/metrics.h"

namespace rpq::serve {

void NoteDeadline(QueryResult* r) {
  if (!r->stats.deadline_hit) return;
  r->degraded = true;
  r->deadline_exceeded = true;
  if (obs::MetricsEnabled()) {
    static const obs::CounterId c = obs::GetCounter("serve.deadline_exceeded");
    obs::Add(c, 1);
  }
}

void ForEachUniformRun(
    const QuerySpec* qs, size_t n,
    const std::function<void(size_t, const std::vector<const float*>&)>&
        serve_run) {
  std::vector<const float*> queries;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && qs[j].k == qs[i].k &&
           qs[j].beam_width == qs[i].beam_width &&
           qs[j].rerank == qs[i].rerank &&
           qs[j].rerank_mode == qs[i].rerank_mode &&
           qs[j].deadline_us == qs[i].deadline_us) {
      ++j;
    }
    queries.clear();
    for (size_t t = i; t < j; ++t) queries.push_back(qs[t].query);
    serve_run(i, queries);
    i = j;
  }
}

refine::RerankSpec MemoryIndexService::SpecFor(const QuerySpec& q) const {
  return {q.rerank,
          refine::SanitizeRequestedMode(q.rerank_mode, index_.stores_vectors(),
                                        index_.linkcode() != nullptr)};
}

QueryResult MemoryIndexService::Search(const QuerySpec& q) const {
  auto res = index_.Search(q.query, q.k, {q.beam_width, q.k, DeadlineFor(q)},
                           mode_, SpecFor(q), q.trace);
  QueryResult out{std::move(res.results), res.stats, 0.0};
  NoteDeadline(&out);
  return out;
}

void MemoryIndexService::SearchBatch(const QuerySpec* qs, size_t n,
                                     QueryResult* out) const {
  ForEachUniformRun(qs, n, [&](size_t first,
                               const std::vector<const float*>& queries) {
    const QuerySpec& q = qs[first];
    auto res = index_.SearchBatch(queries.data(), queries.size(), q.k,
                                  {q.beam_width, q.k, DeadlineFor(q)}, mode_,
                                  SpecFor(q), q.trace);
    for (size_t t = 0; t < res.size(); ++t) {
      out[first + t] = {std::move(res[t].results), res[t].stats, 0.0};
      NoteDeadline(&out[first + t]);
    }
  });
}

QueryResult DiskIndexService::Search(const QuerySpec& q) const {
  auto res = index_.Search(q.query, q.k, {q.beam_width, q.k, DeadlineFor(q)},
                           q.trace);
  QueryResult out{std::move(res.results), res.stats,
                  res.io.simulated_seconds};
  // Degradation can come from the deadline OR from a block that stayed
  // unreadable through retries; DiskSearchResult::degraded covers both.
  out.degraded = res.degraded;
  NoteDeadline(&out);
  return out;
}

QueryResult FreshVamanaService::Search(const QuerySpec& q) const {
  QueryResult out;
  out.results = index_.Search(q.query, q.k, q.beam_width);
  return out;
}

QueryResult ExactService::Search(const QuerySpec& q) const {
  QueryResult out;
  TopK top(q.k);
  for (uint32_t v = 0; v < data_.size(); ++v) {
    top.Push(SquaredL2(q.query, data_[v], data_.dim()), v);
  }
  out.stats.dist_comps = data_.size();
  out.results = top.Take();
  return out;
}

}  // namespace rpq::serve
