#include "serve/ivf_service.h"

namespace rpq::serve {
namespace {

// IvfStats -> the serving layer's graph-shaped stats: probes are the
// analogue of hops (routing decisions), scanned codes of dist_comps.
QueryResult ToQueryResult(ivf::IvfSearchResult&& res) {
  QueryResult out;
  out.results = std::move(res.results);
  out.stats.hops = res.stats.lists_probed;
  out.stats.dist_comps = res.stats.codes_scanned;
  out.stats.deadline_hit = res.stats.deadline_hit;
  NoteDeadline(&out);
  return out;
}

}  // namespace

ivf::IvfSearchOptions IvfService::OptionsFor(const QuerySpec& q) const {
  ivf::IvfSearchOptions opt;
  opt.nprobe = q.beam_width;  // beam_width doubles as nprobe for IVF
  opt.rerank = q.rerank > 0 ? q.rerank : rerank_;
  // Degraded to kAuto where the index cannot serve it (linkcode has no IVF
  // analogue).
  opt.rerank_mode = refine::SanitizeRequestedMode(
      q.rerank_mode, index_.stores_vectors(), /*has_linkcode=*/false);
  opt.trace = q.trace;
  opt.deadline = DeadlineFor(q);
  return opt;
}

QueryResult IvfService::Search(const QuerySpec& q) const {
  return ToQueryResult(index_.Search(q.query, q.k, OptionsFor(q)));
}

void IvfService::SearchBatch(const QuerySpec* qs, size_t n,
                             QueryResult* out) const {
  ForEachUniformRun(qs, n, [&](size_t first,
                               const std::vector<const float*>& queries) {
    auto res = index_.SearchBatch(queries.data(), queries.size(), qs[first].k,
                                  OptionsFor(qs[first]));
    for (size_t t = 0; t < res.size(); ++t) {
      out[first + t] = ToQueryResult(std::move(res[t]));
    }
  });
}

}  // namespace rpq::serve
