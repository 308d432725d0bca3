// Micro-batcher: groups in-flight queries so a worker serves several
// back-to-back through SearchService::SearchBatch — amortizing per-query
// setup (ADC lookup-table builds stay codebook-cache-resident, one pool
// dispatch per batch instead of per query). A batch is dispatched as soon
// as it reaches max_batch, when max_wait expires after its first query, or
// on Flush(); under low load queries therefore pay at most max_wait of
// added latency, under high load batches fill instantly. Each batch goes
// through ServingEngine::Dispatch, the path Submit takes, so batched queries
// are admission-controlled and counted like any other, and their queue wait
// starts when the batcher took them.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/engine.h"

namespace rpq::serve {

struct BatcherOptions {
  size_t max_batch = 8;  ///< dispatch when this many queries are pending
  std::chrono::microseconds max_wait{200};  ///< ...or this long after the 1st
};

/// Groups async queries into batches and hands them to the engine.
class MicroBatcher {
 public:
  MicroBatcher(const ServingEngine& engine, const BatcherOptions& options = {});
  ~MicroBatcher();  ///< flushes pending queries, then stops

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one query; the future resolves when its batch completes. The
  /// pointed-to query vector must stay alive until then.
  std::future<QueryResult> Submit(const QuerySpec& q);

  /// Dispatches whatever is pending without waiting for the timer.
  void Flush();

  /// Batches dispatched so far (instrumentation for tests/benches).
  size_t batches_dispatched() const;
  /// Queries submitted so far.
  size_t queries_submitted() const;

 private:
  void TimerLoop();
  void DispatchLocked(std::unique_lock<std::mutex>& lk);

  const ServingEngine& engine_;
  BatcherOptions opt_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Request> pending_;
  std::chrono::steady_clock::time_point batch_open_since_;
  size_t batches_ = 0;
  size_t submitted_ = 0;
  bool stop_ = false;
  std::thread timer_;
};

}  // namespace rpq::serve
