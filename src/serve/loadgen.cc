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

// End-to-end served latency, pooled across the whole run (ns).
obs::HistogramId LatencyHistogram() {
  static const obs::HistogramId id = obs::GetHistogram("serve.latency_ns");
  return id;
}

inline uint64_t SecondsToNanos(double seconds) {
  return seconds > 0 ? static_cast<uint64_t>(seconds * 1e9) : 0;
}

// Per-thread degradation tallies, summed into the report at the end.
struct DegradeTally {
  size_t degraded = 0;
  size_t shed = 0;
  size_t deadline_exceeded = 0;
  size_t hedged = 0;
  size_t shards_lost = 0;

  void Count(const QueryResult& r) {
    if (r.degraded) ++degraded;
    if (r.shed) ++shed;
    if (r.deadline_exceeded) ++deadline_exceeded;
    if (r.hedged) ++hedged;
    shards_lost += r.shards_lost;
  }
  void Merge(const DegradeTally& o) {
    degraded += o.degraded;
    shed += o.shed;
    deadline_exceeded += o.deadline_exceeded;
    hedged += o.hedged;
    shards_lost += o.shards_lost;
  }
  void FillReport(LoadReport* r) const {
    r->degraded = degraded;
    r->shed = shed;
    r->deadline_exceeded = deadline_exceeded;
    r->hedged = hedged;
    r->shards_lost = shards_lost;
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
  const bool live_metrics = obs::MetricsEnabled();

  std::atomic<size_t> next{0};
  // Per-thread tallies: a fixed-size histogram each instead of every sample
  // — memory is constant no matter how long the loop runs.
  std::vector<obs::HistogramData> latencies(threads);
  std::vector<size_t> hops(threads, 0);
  std::vector<double> io(threads, 0.0);
  std::vector<DegradeTally> tallies(threads);

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
        Timer lat;
        QueryResult r = service.Search(spec);
        const uint64_t nanos =
            SecondsToNanos(lat.ElapsedSeconds() + r.simulated_io_seconds);
        latencies[t].Record(nanos);
        // Live-record into the registry when metrics are on, so a scraper's
        // window sees latency move DURING the run, not only after the final
        // merge below. The closed loop calls the service directly, so it
        // feeds the flight recorder itself.
        if (live_metrics) obs::Record(LatencyHistogram(), nanos);
        ObserveQuery(spec, r, nanos);
        hops[t] += r.stats.hops;
        io[t] += r.simulated_io_seconds;
        tallies[t].Count(r);
      }
    });
  }
  for (auto& c : clients) c.join();

  LoadReport report;
  report.wall_seconds = wall.ElapsedSeconds();
  report.completed = total;
  obs::HistogramData all;
  size_t total_hops = 0;
  DegradeTally tally;
  for (size_t t = 0; t < threads; ++t) {
    all.Merge(latencies[t]);
    total_hops += hops[t];
    report.simulated_io_seconds += io[t];
    tally.Merge(tallies[t]);
  }
  tally.FillReport(&report);
  // Samples already went in live when metrics were on; merging again here
  // would double-count them in the registry.
  if (!live_metrics) obs::MergeInto(LatencyHistogram(), all);
  // Simulated device time is not wall time; charge it as if the device were
  // serving the threads in parallel, matching the eval harness convention.
  const double effective =
      report.wall_seconds + report.simulated_io_seconds / threads;
  report.qps = effective > 0 ? total / effective : 0;
  report.latency = SummarizeHistogramNanos(all);
  report.mean_hops = static_cast<double>(total_hops) / total;
  return report;
}

LoadReport RunOpenLoop(const ServingEngine& engine, const Dataset& queries,
                       const LoadgenOptions& options) {
  RPQ_CHECK(!queries.empty());
  RPQ_CHECK(options.arrival_qps > 0);
  const size_t total =
      options.total_queries > 0 ? options.total_queries : queries.size();
  const bool live_metrics = obs::MetricsEnabled();
  const bool batched = options.batch > 1;

  std::mt19937_64 rng(options.seed);
  std::exponential_distribution<double> exp_gap(options.arrival_qps);

  std::mutex mu;
  obs::HistogramData lat_hist;
  size_t total_hops = 0;
  double total_io = 0;
  DegradeTally tally;

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  double next_arrival = 0;  // seconds since start

  // Both arrival modes feed one collector thread that retires futures in
  // arrival order. For batched arrivals the FIFO .get() stamps completion
  // times exactly (batches complete all-at-once in dispatch order); for
  // per-query Submit, completions can reorder by up to the worker count, so
  // a stamp can be late by at most one service time — an acceptable bound
  // in exchange for routing through Submit, which is where admission
  // control (shed/brownout) and the queue-wait metric live. Shed queries
  // count in the tallies but not the latency summary (nothing was served).
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
      // Only this thread touches the tallies (producer only queues).
      tally.Count(r);
      if (!r.shed) {
        const double lat =
            std::chrono::duration<double>(Clock::now() - item.second).count() +
            r.simulated_io_seconds;
        const uint64_t nanos = SecondsToNanos(lat);
        lat_hist.Record(nanos);
        if (live_metrics) obs::Record(LatencyHistogram(), nanos);
        // Per-query submissions already fed the recorder inside
        // ServingEngine::Submit; only the batched path (which dispatches
        // via Execute, bypassing Submit) is observed here.
        if (batched) ObserveQuery(options.spec, r, nanos);
      }
      total_hops += r.stats.hops;
      total_io += r.simulated_io_seconds;
    }
  });

  // Batched arrivals flow through a MicroBatcher so the engine serves them
  // via SearchBatch (amortized tables; occupancy recorded in
  // serve.batch_occupancy); note the batcher dispatches through Execute, so
  // admission control does not apply to batched runs.
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
  // Same double-count guard as the closed loop: live-recorded when on.
  if (!live_metrics) obs::MergeInto(LatencyHistogram(), lat_hist);

  LoadReport report;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.completed = total;
  report.offered_qps = options.arrival_qps;
  report.qps =
      report.wall_seconds > 0 ? total / report.wall_seconds : 0;
  report.mean_hops = static_cast<double>(total_hops) / total;
  report.simulated_io_seconds = total_io;
  report.latency = SummarizeHistogramNanos(lat_hist);
  tally.FillReport(&report);
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
