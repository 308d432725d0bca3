// ServingEngine: executes queries against one SearchService concurrently on
// a fixed worker pool. Workers need no coordination at query time — backend
// scratch is thread-local (see search_service.h), so the engine is pure
// dispatch: a blocking parallel-replay API for offline evaluation and an
// async submit API for the load generator and micro-batcher.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "serve/search_service.h"

namespace rpq::serve {

struct EngineOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency().
  size_t threads = 0;
  /// Overload admission control for the async Submit path, keyed on the
  /// engine's in-flight query count (submitted, not yet completed). Two
  /// watermarks, both 0 = disabled:
  ///  * above `brownout_watermark`, queries are admitted DEGRADED — their
  ///    beam/nprobe and rerank knobs shrink per the brownout fields below,
  ///    trading recall for service rate while the queue drains;
  ///  * above `shed_watermark`, queries are refused outright: the future
  ///    resolves immediately with an empty result flagged shed+degraded.
  /// Shedding bounds queue memory and tail latency instead of letting an
  /// overloaded engine OOM or stall.
  size_t brownout_watermark = 0;
  size_t shed_watermark = 0;
  /// Brownout policy: beam_width (nprobe for IVF) is scaled by this factor
  /// and floored at brownout_min_beam, but never raised above the query's
  /// own value (graph searches widen a beam below k to k themselves); a
  /// nonzero rerank request is halved, floored at k.
  double brownout_beam_factor = 0.5;
  size_t brownout_min_beam = 8;
};

/// Feeds one completed query to the global flight recorder when it is
/// enabled. `latency_nanos` is the latency the caller measured, simulated
/// I/O included.
void ObserveQuery(const QuerySpec& q, const QueryResult& r,
                  uint64_t latency_nanos);

/// Concurrent query executor over one (thread-safe) SearchService.
class ServingEngine {
 public:
  explicit ServingEngine(const SearchService& service,
                         const EngineOptions& options = {});

  size_t num_threads() const { return pool_.num_threads(); }
  const SearchService& service() const { return service_; }

  /// Replays every row of `queries` concurrently with `spec`'s knobs (its
  /// `query` is replaced by each row); blocks until done. Results are in
  /// query order and identical to serial execution (backends are
  /// deterministic and share no mutable state across workers). With a
  /// single worker the replay runs inline — serial timing stays honest.
  std::vector<QueryResult> SearchAll(const Dataset& queries,
                                     const QuerySpec& spec) const;
  std::vector<QueryResult> SearchAll(const std::vector<QuerySpec>& specs) const;

  /// Asynchronous single-query submission (open-loop serving).
  std::future<QueryResult> Submit(const QuerySpec& q) const;

  /// Runs an arbitrary closure on the worker pool; the micro-batcher
  /// dispatches whole batches through this.
  void Execute(std::function<void()> fn) const;

  /// Blocks until every submitted task has completed (open-loop drains).
  void WaitIdle() const { pool_.Wait(); }

  /// Queries submitted and not yet completed (admission-control input).
  size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  const SearchService& service_;
  EngineOptions options_;
  mutable std::atomic<size_t> inflight_{0};
  mutable ThreadPool pool_;
};

}  // namespace rpq::serve
