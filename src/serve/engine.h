// ServingEngine: executes queries against one SearchService concurrently on
// a fixed worker pool. Workers need no coordination at query time — backend
// scratch is thread-local (see search_service.h), so the engine is pure
// dispatch: a blocking parallel-replay API for offline evaluation and one
// async path, Dispatch, that the load generator and the micro-batcher share.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "serve/search_service.h"

namespace rpq::serve {

struct EngineOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency().
  size_t threads = 0;
  /// Overload admission control for the async path, keyed on the engine's
  /// in-flight query count (dispatched, not yet completed). Two watermarks,
  /// both 0 = disabled:
  ///  * above `brownout_watermark`, queries are admitted DEGRADED: their
  ///    beam_width (nprobe for IVF) is halved, floored at 8 but never raised
  ///    above the query's own value (graph searches widen a beam below k to
  ///    k themselves), and a nonzero rerank request is halved, floored at k,
  ///    trading recall for service rate while the queue drains;
  ///  * above `shed_watermark`, queries are refused outright: the future
  ///    resolves immediately with an empty result flagged shed+degraded.
  /// Shedding bounds queue memory and tail latency instead of letting an
  /// overloaded engine OOM or stall.
  size_t brownout_watermark = 0;
  size_t shed_watermark = 0;
};

/// One query handed to the async path: its knobs, the promise its answer
/// resolves, and the TickNow() at which the engine or the micro-batcher took
/// it in. Queue wait and served latency are measured from that stamp.
struct Request {
  QuerySpec spec;
  std::promise<QueryResult> promise;
  uint64_t taken_ticks = 0;
};

/// Records one completed query, once, on whichever path served it: counts
/// `serve.completed`, adds the wall-clock `latency_nanos` to
/// `serve.latency_ns` (shed queries excluded: nothing was served) and feeds
/// the global flight recorder when it is enabled. `latency_nanos` is wall
/// clock only: a disk backend's simulated device time stays in `r`.
void ObserveQuery(const QuerySpec& q, const QueryResult& r,
                  uint64_t latency_nanos);

/// Concurrent query executor over one (thread-safe) SearchService.
class ServingEngine {
 public:
  explicit ServingEngine(const SearchService& service,
                         const EngineOptions& options = {});

  size_t num_threads() const { return pool_.num_threads(); }

  /// Replays every row of `queries` concurrently with `spec`'s knobs (its
  /// `query` is replaced by each row); blocks until done. Results are in
  /// query order and identical to serial execution (backends are
  /// deterministic and share no mutable state across workers). With a
  /// single worker the replay runs inline — serial timing stays honest.
  std::vector<QueryResult> SearchAll(const Dataset& queries,
                                     const QuerySpec& spec) const;
  std::vector<QueryResult> SearchAll(const std::vector<QuerySpec>& specs) const;

  /// Asynchronous single-query submission: Dispatch of a batch of one.
  std::future<QueryResult> Submit(const QuerySpec& q) const;

  /// The async serving path. Admits each request in turn (shed and brownout
  /// per EngineOptions, counted in serve.submitted / serve.shed /
  /// serve.brownout; a shed request resolves here), then serves the admitted
  /// ones on one worker with one SearchService::SearchBatch call. Records
  /// one queue_wait span and one ObserveQuery per request, and one service
  /// span per SearchBatch call.
  void Dispatch(std::vector<Request> batch) const;

  /// Blocks until every dispatched batch has completed (open-loop drains).
  void WaitIdle() const { pool_.Wait(); }

  /// Queries dispatched and not yet completed (admission-control input).
  size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  /// Worker side of Dispatch.
  void Serve(std::vector<Request>& batch) const;

  const SearchService& service_;
  EngineOptions options_;
  mutable std::atomic<size_t> inflight_{0};
  mutable ThreadPool pool_;
};

}  // namespace rpq::serve
