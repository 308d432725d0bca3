#include "graph/knn_graph.h"

#include <algorithm>

#include "common/distance.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/ground_truth.h"

namespace rpq::graph {

KnnLists BuildNnDescent(const Dataset& base, const NnDescentOptions& opt) {
  size_t n = base.size();
  RPQ_CHECK_GT(n, opt.k);
  Rng rng(opt.seed);

  // Neighbor lists with flags: new entries participate in joins once.
  struct Entry {
    Neighbor nb;
    bool is_new;
  };
  std::vector<std::vector<Entry>> lists(n);

  auto dist = [&](uint32_t a, uint32_t b) {
    return SquaredL2(base[a], base[b], base.dim());
  };
  auto try_insert = [&](uint32_t host, uint32_t cand, float d) -> bool {
    if (host == cand) return false;
    auto& lst = lists[host];
    for (const auto& e : lst) {
      if (e.nb.id == cand) return false;
    }
    Neighbor nb{d, cand};
    if (lst.size() < opt.k) {
      lst.push_back({nb, true});
      std::push_heap(lst.begin(), lst.end(),
                     [](const Entry& a, const Entry& b) { return a.nb < b.nb; });
      return true;
    }
    std::pop_heap(lst.begin(), lst.end(),
                  [](const Entry& a, const Entry& b) { return a.nb < b.nb; });
    if (nb < lst.back().nb) {
      lst.back() = {nb, true};
      std::push_heap(lst.begin(), lst.end(),
                     [](const Entry& a, const Entry& b) { return a.nb < b.nb; });
      return true;
    }
    std::push_heap(lst.begin(), lst.end(),
                   [](const Entry& a, const Entry& b) { return a.nb < b.nb; });
    return false;
  };

  // Random initialization.
  for (uint32_t i = 0; i < n; ++i) {
    auto picks = rng.SampleWithoutReplacement(n - 1, opt.k);
    for (uint32_t p : picks) {
      uint32_t j = p >= i ? p + 1 : p;  // skip self
      try_insert(i, j, dist(i, j));
    }
  }

  // Local-join rounds. Each round joins the sampled new/old FORWARD neighbors
  // with the sampled new/old REVERSE neighbors, per Dong et al.'s algorithm —
  // forward-only joins converge far too slowly.
  std::vector<std::vector<uint32_t>> rev_new(n), rev_old(n);
  for (size_t iter = 0; iter < opt.iters; ++iter) {
    for (auto& r : rev_new) r.clear();
    for (auto& r : rev_old) r.clear();
    std::vector<std::vector<uint32_t>> fwd_new(n), fwd_old(n);
    for (uint32_t v = 0; v < n; ++v) {
      for (auto& e : lists[v]) {
        if (e.is_new) {
          if (fwd_new[v].size() < opt.sample) {
            fwd_new[v].push_back(e.nb.id);
            e.is_new = false;
          }
        } else if (fwd_old[v].size() < opt.sample) {
          fwd_old[v].push_back(e.nb.id);
        }
      }
      for (uint32_t u : fwd_new[v]) {
        if (rev_new[u].size() < opt.sample) rev_new[u].push_back(v);
      }
      for (uint32_t u : fwd_old[v]) {
        if (rev_old[u].size() < opt.sample) rev_old[u].push_back(v);
      }
    }

    size_t updates = 0;
    std::vector<uint32_t> new_ids, old_ids;
    for (uint32_t v = 0; v < n; ++v) {
      new_ids = fwd_new[v];
      new_ids.insert(new_ids.end(), rev_new[v].begin(), rev_new[v].end());
      old_ids = fwd_old[v];
      old_ids.insert(old_ids.end(), rev_old[v].begin(), rev_old[v].end());
      std::sort(new_ids.begin(), new_ids.end());
      new_ids.erase(std::unique(new_ids.begin(), new_ids.end()), new_ids.end());
      // Join new x new and new x old.
      for (size_t a = 0; a < new_ids.size(); ++a) {
        for (size_t b = a + 1; b < new_ids.size(); ++b) {
          float d = dist(new_ids[a], new_ids[b]);
          updates += try_insert(new_ids[a], new_ids[b], d);
          updates += try_insert(new_ids[b], new_ids[a], d);
        }
        for (uint32_t o : old_ids) {
          if (o == new_ids[a]) continue;
          float d = dist(new_ids[a], o);
          updates += try_insert(new_ids[a], o, d);
          updates += try_insert(o, new_ids[a], d);
        }
      }
    }
    if (updates == 0) break;  // converged
  }

  KnnLists out(n);
  for (uint32_t i = 0; i < n; ++i) {
    out[i].reserve(lists[i].size());
    for (const auto& e : lists[i]) out[i].push_back(e.nb);
    std::sort(out[i].begin(), out[i].end());
  }
  return out;
}

KnnLists BuildKnnAuto(const Dataset& base, size_t k, ThreadPool* pool) {
  constexpr size_t kExactLimit = 12000;
  if (base.size() <= kExactLimit) return ComputeSelfKnn(base, k, pool);
  NnDescentOptions opt;
  opt.k = k;
  return BuildNnDescent(base, opt);
}

uint32_t FindMedoid(const Dataset& base) {
  RPQ_CHECK(!base.empty());
  std::vector<float> mean(base.dim(), 0.0f);
  for (size_t i = 0; i < base.size(); ++i) {
    const float* row = base[i];
    for (size_t j = 0; j < base.dim(); ++j) mean[j] += row[j];
  }
  for (auto& v : mean) v /= static_cast<float>(base.size());
  uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (size_t i = 0; i < base.size(); ++i) {
    float d = SquaredL2(mean.data(), base[i], base.dim());
    if (d < best_d) {
      best_d = d;
      best = static_cast<uint32_t>(i);
    }
  }
  return best;
}

}  // namespace rpq::graph
