#include "serve/sharded.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace rpq::serve {
namespace {

// Per-query shard fan-out width (how many shards each query touched).
obs::HistogramId FanoutHistogram() {
  static const obs::HistogramId id = obs::GetHistogram("serve.shard_fanout");
  return id;
}

// Fan-out-start -> shard-result-available, one sample per shard that
// actually answered (timed-out shards are censored, not recorded). This is
// the distribution hedge_delay_us and shard_timeout_us race against: set the
// hedge delay near its p95 and the timeout past its p99.
obs::HistogramId ShardWaitHistogram() {
  static const obs::HistogramId id = obs::GetHistogram("serve.shard_wait_ns");
  return id;
}

void RecordShardWait(uint64_t fan_start_ticks) {
  obs::Record(ShardWaitHistogram(), TicksToNanos(TickNow() - fan_start_ticks));
}

// Injected shard stall: the serving thread sleeps as if the shard's backend
// (or its network path, one day) went unresponsive for `stall_us`. Fired
// from the process-wide injector so RPQ_FAULTS reaches fan-outs that were
// built without explicit fault knobs. Hedge requests never roll this —
// hedges exist to race exactly these stalls.
void MaybeStall(uint64_t stall_us) {
  if (stall_us == 0 || !fault::GlobalFaultsEnabled()) return;
  if (fault::GlobalInjector().Fire(fault::Point::kShardStall)) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
}

// Per-shard resolution state for the fault-tolerant fan-out. Each shard has
// TWO result slots (primary and hedge) and one atomic state; a finishing
// request writes its OWN slot first, then claims the shard with a CAS from
// kOpen. Exactly one writer can win, so the merge only ever reads a slot
// whose write completed-before the winning CAS — no torn reads, no
// primary/hedge write race, even when the main thread has already timed out
// and abandoned the shard.
struct FanState {
  static constexpr uint32_t kOpen = 0;
  static constexpr uint32_t kPrimary = 1;
  static constexpr uint32_t kHedge = 2;
  static constexpr uint32_t kAbandoned = 3;

  explicit FanState(size_t n)
      : primary(n), hedge(n), state(std::make_unique<std::atomic<uint32_t>[]>(n)) {
    for (size_t s = 0; s < n; ++s) state[s].store(kOpen);
  }

  std::vector<QueryResult> primary;
  std::vector<QueryResult> hedge;
  std::unique_ptr<std::atomic<uint32_t>[]> state;
  std::mutex mu;
  std::condition_variable cv;
  size_t resolved = 0;  // shards claimed by kPrimary or kHedge (under mu)

  /// Called by a finishing request after writing its slot: claims the shard
  /// if still open. Returns true when this request's result will be used.
  bool Claim(size_t s, uint32_t who) {
    uint32_t expected = kOpen;
    if (!state[s].compare_exchange_strong(expected, who)) return false;
    std::lock_guard<std::mutex> lock(mu);
    ++resolved;
    cv.notify_one();
    return true;
  }
};

}  // namespace

ShardedService::~ShardedService() {
  // Only the fault-tolerant fan-out can leave tasks behind (every other
  // path blocks on its shards); those tasks dereference shard services the
  // surrounding deployment owns and destroys right after this service.
  if (!options_.parallel_shards) return;
  ThreadPool* pool = SharedPool();
  if (!pool->CurrentThreadIsWorker()) pool->Wait();
}

QueryResult ShardedService::Merge(const QuerySpec& q,
                                  std::vector<QueryResult>& per,
                                  const std::vector<uint8_t>& present) const {
  obs::ScopedStage span(obs::Stage::kMerge, q.trace);
  if (obs::MetricsEnabled()) obs::Record(FanoutHistogram(), per.size());
  // Shard-order accumulation keeps stats and the (dist, global id) top-k
  // merge deterministic regardless of how the per-shard results were
  // produced (serial, parallel, or hedged fan-out).
  QueryResult merged;
  TopK top(q.k);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (present[s] == 0) {
      ++merged.shards_lost;
      continue;
    }
    const Shard& shard = shards_[s];
    QueryResult& r = per[s];
    merged.stats.hops += r.stats.hops;
    merged.stats.dist_comps += r.stats.dist_comps;
    merged.stats.visited_hits += r.stats.visited_hits;
    merged.simulated_io_seconds += r.simulated_io_seconds;
    merged.degraded |= r.degraded;
    merged.deadline_exceeded |= r.deadline_exceeded;
    for (const Neighbor& nb : r.results) {
      uint32_t id = shard.global_ids.empty() ? nb.id : shard.global_ids[nb.id];
      top.Push(nb.dist, id);
    }
  }
  if (merged.shards_lost > 0) {
    merged.degraded = true;
    if (obs::MetricsEnabled()) {
      static const obs::CounterId lost = obs::GetCounter("serve.shard_lost");
      obs::Add(lost, merged.shards_lost);
    }
  }
  merged.results = top.Take();
  return merged;
}

QueryResult ShardedService::SearchFaultTolerant(const QuerySpec& q,
                                                ThreadPool* pool) const {
  const size_t n = shards_.size();
  auto st = std::make_shared<FanState>(n);
  // Wait budgets are anchored at fan-out start so a slow early shard eats
  // into the hedge delay rather than extending the total wall clock.
  const Deadline hedge_at = Deadline::AfterMicros(options_.hedge_delay_us);
  const Deadline give_up = Deadline::AfterMicros(options_.shard_timeout_us);

  // QueryTrace is single-writer and the calling thread does not run shard
  // requests on this path, so every shard runs untraced; registry metrics
  // are per-thread-sharded and record from every shard regardless.
  QuerySpec sub = q;
  sub.trace = nullptr;
  const uint64_t stall_us = options_.injected_stall_us;
  const uint64_t fan_start = obs::MetricsEnabled() ? TickNow() : 0;
  for (size_t s = 0; s < n; ++s) {
    const SearchService* svc = shards_[s].service;
    pool->Submit([st, svc, sub, stall_us, s, fan_start] {
      MaybeStall(stall_us);
      st->primary[s] = svc->Search(sub);
      // Wait samples only for shards whose result the query will use; a
      // lost claim means the main thread already gave up (or a hedge won),
      // so that wait is censored rather than recorded.
      if (st->Claim(s, FanState::kPrimary) && fan_start != 0) {
        RecordShardWait(fan_start);
      }
    });
  }

  auto wait_until = [&](const Deadline& until) {
    std::unique_lock<std::mutex> lock(st->mu);
    if (!until.active()) {
      st->cv.wait(lock, [&] { return st->resolved == n; });
      return;
    }
    const double remaining = until.RemainingSeconds();
    if (remaining <= 0) return;
    st->cv.wait_for(lock, std::chrono::duration<double>(remaining),
                    [&] { return st->resolved == n; });
  };

  QueryResult merged_extra;  // carries the hedged flag into the merge result
  if (options_.hedge_delay_us > 0) {
    wait_until(hedge_at);
    size_t hedges = 0;
    for (size_t s = 0; s < n; ++s) {
      if (st->state[s].load() != FanState::kOpen) continue;
      const SearchService* replica = shards_[s].replica;
      if (replica == nullptr) continue;
      ++hedges;
      pool->Submit([st, replica, sub, s, fan_start] {
        st->hedge[s] = replica->Search(sub);
        if (st->Claim(s, FanState::kHedge) && fan_start != 0) {
          RecordShardWait(fan_start);
        }
      });
    }
    if (hedges > 0) {
      merged_extra.hedged = true;
      if (obs::MetricsEnabled()) {
        static const obs::CounterId c = obs::GetCounter("serve.hedges");
        obs::Add(c, hedges);
      }
    }
  }
  wait_until(give_up);

  // Abandon whatever is still open: a late request's Claim will fail and its
  // result is discarded (the task keeps FanState alive through its
  // shared_ptr, so the write targets live memory either way).
  std::vector<uint8_t> present(n, 0);
  std::vector<QueryResult> per(n);
  for (size_t s = 0; s < n; ++s) {
    uint32_t expected = FanState::kOpen;
    st->state[s].compare_exchange_strong(expected, FanState::kAbandoned);
    const uint32_t who = st->state[s].load();
    if (who == FanState::kPrimary) {
      per[s] = std::move(st->primary[s]);
      present[s] = 1;
    } else if (who == FanState::kHedge) {
      per[s] = std::move(st->hedge[s]);
      present[s] = 1;
    }
  }
  QueryResult merged = Merge(q, per, present);
  merged.hedged = merged_extra.hedged;
  return merged;
}

QueryResult ShardedService::Search(const QuerySpec& q) const {
  const size_t n = shards_.size();
  std::vector<QueryResult> per(n);
  std::vector<uint8_t> present(n, 1);
  ThreadPool* pool = SharedPool();
  // Serial fan-out — also the forced fallback when the caller IS a worker of
  // the fan-out pool (e.g. query handlers submitted onto SharedPool, or a
  // sharded shard of a sharded tree sharing one pool): submit-and-wait from
  // inside the pool would deadlock once every worker is a waiter.
  if (!options_.parallel_shards || n < 2 || pool->CurrentThreadIsWorker()) {
    const Deadline deadline = DeadlineFor(q);
    const uint64_t fan_start = obs::MetricsEnabled() ? TickNow() : 0;
    for (size_t s = 0; s < n; ++s) {
      // A spent budget skips the remaining shards (partial merge) rather
      // than starting searches whose results the caller is done waiting for.
      if (s > 0 && deadline.Expired()) {
        present[s] = 0;
        continue;
      }
      MaybeStall(options_.injected_stall_us);
      per[s] = shards_[s].service->Search(q);
      // Serial shards queue behind each other, so each wait sample is the
      // true fan-out-start-anchored availability time, same semantic as the
      // parallel paths.
      if (fan_start != 0) RecordShardWait(fan_start);
    }
    return Merge(q, per, present);
  }

  if (options_.shard_timeout_us > 0 || options_.hedge_delay_us > 0) {
    return SearchFaultTolerant(q, pool);
  }

  // Per-query fan-out: shards 1..S-1 run on the pool, shard 0 on the calling
  // thread. Completion is tracked with a local counter (not pool->Wait(),
  // which would also wait on unrelated tasks other queries submitted). The
  // by-reference captures are safe here and only here: this path always
  // blocks until every shard finished before returning.
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = n - 1;
  // QueryTrace is single-writer: only shard 0 (the calling thread) records
  // into the query's trace; pool-side shards run untraced. Registry metrics
  // are per-thread-sharded, so those record from every shard regardless.
  QuerySpec sub = q;
  sub.trace = nullptr;
  const uint64_t fan_start = obs::MetricsEnabled() ? TickNow() : 0;
  for (size_t s = 1; s < n; ++s) {
    pool->Submit([this, &sub, &per, &mu, &cv, &pending, s, fan_start] {
      MaybeStall(options_.injected_stall_us);
      per[s] = shards_[s].service->Search(sub);
      if (fan_start != 0) RecordShardWait(fan_start);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }
  MaybeStall(options_.injected_stall_us);
  per[0] = shards_[0].service->Search(q);
  if (fan_start != 0) RecordShardWait(fan_start);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
  return Merge(q, per, present);
}

size_t ShardedMemoryIndex::MemoryBytes() const {
  size_t total = 0;
  for (const auto& s : shards) total += s->index->MemoryBytes();
  return total;
}

ShardedMemoryIndex BuildShardedMemoryIndex(
    const Dataset& base, const quant::VectorQuantizer& quantizer,
    size_t num_shards, const graph::VamanaOptions& vamana_options,
    const ShardedOptions& sharded_options) {
  RPQ_CHECK(num_shards > 0);
  // Keep shards big enough to carry a graph (degree < shard size).
  num_shards = std::max<size_t>(
      1, std::min(num_shards, base.size() / (vamana_options.degree + 1)));
  ShardedMemoryIndex out;
  std::vector<Shard> shards;
  const size_t per_shard = (base.size() + num_shards - 1) / num_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = s * per_shard;
    const size_t end = std::min(base.size(), begin + per_shard);
    if (begin >= end) break;
    auto shard = std::make_unique<MemoryShard>();
    shard->base = base.Slice(begin, end);
    shard->graph = graph::BuildVamana(shard->base, vamana_options);
    shard->index =
        core::MemoryIndex::Build(shard->base, shard->graph, quantizer);
    shard->service = std::make_unique<MemoryIndexService>(*shard->index);
    std::vector<uint32_t> global_ids(end - begin);
    for (size_t i = begin; i < end; ++i) {
      global_ids[i - begin] = static_cast<uint32_t>(i);
    }
    // Single-copy deployment: the shard self-hedges. Injected stalls and
    // transient faults are per-request, so a retry to the same backend is
    // exactly what a replica would provide.
    shards.push_back(
        {shard->service.get(), std::move(global_ids), shard->service.get()});
    out.shards.push_back(std::move(shard));
  }
  out.service =
      std::make_unique<ShardedService>(std::move(shards), sharded_options);
  return out;
}

}  // namespace rpq::serve
