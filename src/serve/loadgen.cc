#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "serve/batcher.h"

namespace rpq::serve {
namespace {

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
          .count());
}

// The client side of a load run: what its LoadReport summarizes. Each
// closed-loop client thread keeps one and the open loop's collector keeps
// one. None writes the registry; ObserveQuery does that once per query.
struct ClientTally {
  obs::HistogramData latency;  // wall-clock ns of served (not shed) queries
  size_t hops = 0;
  size_t degraded = 0;
  size_t shed = 0;
  size_t deadline_exceeded = 0;
  size_t hedged = 0;
  size_t shards_lost = 0;

  void Count(const QueryResult& r, uint64_t latency_nanos) {
    if (!r.shed) latency.Record(latency_nanos);
    hops += r.stats.hops;
    if (r.degraded) ++degraded;
    if (r.shed) ++shed;
    if (r.deadline_exceeded) ++deadline_exceeded;
    if (r.hedged) ++hedged;
    shards_lost += r.shards_lost;
  }
  void Merge(const ClientTally& o) {
    latency.Merge(o.latency);
    hops += o.hops;
    degraded += o.degraded;
    shed += o.shed;
    deadline_exceeded += o.deadline_exceeded;
    hedged += o.hedged;
    shards_lost += o.shards_lost;
  }
  LoadReport Report(size_t completed, double wall_seconds) const {
    LoadReport r;
    r.completed = completed;
    r.wall_seconds = wall_seconds;
    r.qps = wall_seconds > 0 ? completed / wall_seconds : 0;
    r.latency = SummarizeHistogramNanos(latency);
    r.mean_hops = static_cast<double>(hops) / completed;
    r.degraded = degraded;
    r.shed = shed;
    r.deadline_exceeded = deadline_exceeded;
    r.hedged = hedged;
    r.shards_lost = shards_lost;
    return r;
  }
};

}  // namespace

LatencySummary SummarizeLatencies(std::vector<double> seconds) {
  LatencySummary s;
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  double sum = 0;
  for (double v : seconds) sum += v;
  s.mean_ms = sum / seconds.size() * 1e3;
  s.p50_ms = PercentileSorted(seconds, 0.50) * 1e3;
  s.p95_ms = PercentileSorted(seconds, 0.95) * 1e3;
  s.p99_ms = PercentileSorted(seconds, 0.99) * 1e3;
  s.max_ms = seconds.back() * 1e3;
  return s;
}

LatencySummary SummarizeHistogramNanos(const obs::HistogramData& hist) {
  LatencySummary s;
  if (hist.count == 0) return s;
  s.mean_ms = hist.Mean() / 1e6;
  s.p50_ms = hist.Percentile(0.50) / 1e6;
  s.p95_ms = hist.Percentile(0.95) / 1e6;
  s.p99_ms = hist.Percentile(0.99) / 1e6;
  s.max_ms = static_cast<double>(hist.max) / 1e6;
  return s;
}

LoadReport RunClosedLoop(const SearchService& service, const Dataset& queries,
                         const LoadgenOptions& options) {
  RPQ_CHECK(!queries.empty());
  const size_t total =
      options.total_queries > 0 ? options.total_queries : queries.size();
  const size_t threads = std::max<size_t>(1, options.threads);

  std::atomic<size_t> next{0};
  // Per-thread tallies: a fixed-size histogram each instead of every sample
  // — memory is constant no matter how long the loop runs.
  std::vector<ClientTally> tallies(threads);

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        QuerySpec spec = options.spec;
        spec.query = queries[i % queries.size()];
        const Clock::time_point start = Clock::now();
        QueryResult r = service.Search(spec);
        const uint64_t nanos = NanosSince(start);
        // The closed loop calls the service without an engine, so it
        // records each query itself — live, so a scraper's window sees the
        // run move while it is running.
        ObserveQuery(spec, r, nanos);
        tallies[t].Count(r, nanos);
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall_seconds = wall.ElapsedSeconds();

  ClientTally all;
  for (const ClientTally& t : tallies) all.Merge(t);
  return all.Report(total, wall_seconds);
}

LoadReport RunOpenLoop(const ServingEngine& engine, const Dataset& queries,
                       const LoadgenOptions& options) {
  RPQ_CHECK(!queries.empty());
  RPQ_CHECK(options.arrival_qps > 0);
  const size_t total =
      options.total_queries > 0 ? options.total_queries : queries.size();

  std::mt19937_64 rng(options.seed);
  std::exponential_distribution<double> exp_gap(options.arrival_qps);

  std::mutex mu;
  ClientTally tally;  // only the collector thread touches it

  const auto start = Clock::now();
  double next_arrival = 0;  // seconds since start

  // One collector thread retires futures in arrival order. Batches
  // complete all-at-once in dispatch order, so for batched arrivals the
  // FIFO .get() stamps completion times exactly; per-query completions can
  // reorder by up to the worker count, so a stamp can be late by at most
  // one service time. Both arrival modes reach the engine through
  // ServingEngine::Dispatch, where admission control (shed/brownout), the
  // queue-wait span and the registry's record of each query live.
  std::condition_variable cv;
  std::deque<std::pair<std::future<QueryResult>, Clock::time_point>> inflight;
  bool done = false;
  std::thread collector([&] {
    for (;;) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done || !inflight.empty(); });
      if (inflight.empty()) {
        if (done) return;
        continue;
      }
      auto item = std::move(inflight.front());
      inflight.pop_front();
      lk.unlock();
      QueryResult r = item.first.get();
      tally.Count(r, NanosSince(item.second));
    }
  });

  // Batched arrivals flow through a MicroBatcher so the engine serves them
  // via SearchBatch (amortized tables; occupancy recorded in
  // serve.batch_occupancy).
  std::unique_ptr<MicroBatcher> batcher;
  if (options.batch > 1) {
    batcher = std::make_unique<MicroBatcher>(
        engine, BatcherOptions{options.batch, std::chrono::microseconds(200)});
  }
  for (size_t i = 0; i < total; ++i) {
    const auto arrival =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(next_arrival));
    std::this_thread::sleep_until(arrival);
    QuerySpec spec = options.spec;
    spec.query = queries[i % queries.size()];
    auto fut = batcher != nullptr ? batcher->Submit(spec) : engine.Submit(spec);
    {
      std::lock_guard<std::mutex> lk(mu);
      inflight.emplace_back(std::move(fut), arrival);
    }
    cv.notify_one();
    next_arrival += exp_gap(rng);
  }
  if (batcher != nullptr) batcher->Flush();
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  engine.WaitIdle();

  LoadReport report = tally.Report(
      total, std::chrono::duration<double>(Clock::now() - start).count());
  report.offered_qps = options.arrival_qps;
  return report;
}

void PrintReport(const char* label, const LoadReport& report) {
  std::printf(
      "%-22s %7zu queries  %9.1f QPS  lat ms: mean %7.3f  p50 %7.3f  "
      "p95 %7.3f  p99 %7.3f  max %7.3f\n",
      label, report.completed, report.qps, report.latency.mean_ms,
      report.latency.p50_ms, report.latency.p95_ms, report.latency.p99_ms,
      report.latency.max_ms);
  // Degradation line, only when something actually degraded — the common
  // all-healthy run keeps its one-row format.
  if (report.degraded + report.shed + report.deadline_exceeded +
          report.hedged + report.shards_lost >
      0) {
    const size_t answered = report.completed - report.shed;
    std::printf(
        "%-22s answered %zu/%zu (%.1f%%)  degraded %zu (%.1f%%)  shed %zu  "
        "deadline %zu  hedged %zu  shards-lost %zu\n",
        "  degradation:", answered, report.completed,
        report.completed > 0 ? 100.0 * answered / report.completed : 0.0,
        report.degraded,
        report.completed > 0 ? 100.0 * report.degraded / report.completed : 0.0,
        report.shed, report.deadline_exceeded, report.hedged,
        report.shards_lost);
  }
}

}  // namespace rpq::serve
