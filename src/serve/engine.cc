#include "serve/engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/fault.h"
#include "common/timer.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace rpq::serve {
namespace {

struct EngineMetrics {
  obs::CounterId submitted = obs::GetCounter("serve.submitted");
  obs::CounterId completed = obs::GetCounter("serve.completed");
  obs::CounterId shed = obs::GetCounter("serve.shed");
  obs::CounterId brownout = obs::GetCounter("serve.brownout");
  // End-to-end served latency, wall clock, pooled across the run.
  obs::HistogramId latency = obs::GetHistogram("serve.latency_ns");
};

const EngineMetrics& Metrics() {
  static const EngineMetrics m;
  return m;
}

// Failure-path counters fire rarely (ideally never), but dashboards and
// metrics-validate --require need their keys present from the first
// snapshot — register them all eagerly at engine construction.
void RegisterServingMetrics() {
  obs::GetCounter("serve.deadline_exceeded");
  obs::GetCounter("serve.shard_lost");
  obs::GetCounter("serve.hedges");
  obs::GetCounter("disk.io_errors");
  obs::GetCounter("disk.retries");
  fault::RegisterFaultMetrics();
}

// The floor a browned-out beam (nprobe) is halved to.
constexpr size_t kBrownoutMinBeam = 8;

}  // namespace

void ObserveQuery(const QuerySpec& q, const QueryResult& r,
                  uint64_t latency_nanos) {
  obs::Add(Metrics().completed, 1);
  if (!r.shed) obs::Record(Metrics().latency, latency_nanos);
  obs::FlightRecorder& recorder = obs::GlobalFlightRecorder();
  if (!recorder.enabled()) return;
  obs::QueryObservation o;
  o.latency_us = latency_nanos / 1000;
  o.k = static_cast<uint32_t>(q.k);
  o.width = static_cast<uint32_t>(q.beam_width);
  o.degraded = r.degraded;
  o.deadline_exceeded = r.deadline_exceeded;
  o.shed = r.shed;
  o.hedged = r.hedged;
  o.shards_lost = static_cast<uint32_t>(r.shards_lost);
  o.trace = q.trace;
  recorder.Observe(o);
}

ServingEngine::ServingEngine(const SearchService& service,
                             const EngineOptions& options)
    : service_(service), options_(options), pool_(options.threads) {
  // Pay the one-time tick calibration and metric-name registration at
  // construction so no query does; also guarantees the serve.* /stage.* /
  // fault.* keys appear in snapshots even before any traffic.
  CalibrateTickClock();
  obs::RegisterStageMetrics();
  RegisterServingMetrics();
  Metrics();
}

std::vector<QueryResult> ServingEngine::SearchAll(const Dataset& queries,
                                                  const QuerySpec& spec) const {
  std::vector<QueryResult> out(queries.size());
  ParallelFor(&pool_, queries.size(), [&](size_t begin, size_t end) {
    QuerySpec q = spec;
    for (size_t i = begin; i < end; ++i) {
      obs::ScopedStage span(obs::Stage::kService, nullptr);
      q.query = queries[i];
      out[i] = service_.Search(q);
    }
  });
  return out;
}

std::vector<QueryResult> ServingEngine::SearchAll(
    const std::vector<QuerySpec>& specs) const {
  std::vector<QueryResult> out(specs.size());
  ParallelFor(&pool_, specs.size(), [&](size_t begin, size_t end) {
    service_.SearchBatch(specs.data() + begin, end - begin,
                         out.data() + begin);
  });
  return out;
}

std::future<QueryResult> ServingEngine::Submit(const QuerySpec& q) const {
  std::vector<Request> one;
  one.push_back({q, std::promise<QueryResult>(), TickNow()});
  std::future<QueryResult> fut = one[0].promise.get_future();
  Dispatch(std::move(one));
  return fut;
}

void ServingEngine::Dispatch(std::vector<Request> batch) const {
  // Admission control: inspect the in-flight depth BEFORE enqueueing, one
  // query at a time, so a batch of B counts as B queries. A shed query never
  // touches the pool — its future resolves right here with an empty degraded
  // result, so overload cannot grow the queue unboundedly. The
  // kAllocFailure injection point models allocation pressure as a forced
  // shed (the refusal path a real allocator failure would take).
  auto admitted = std::make_shared<std::vector<Request>>();
  admitted->reserve(batch.size());
  for (Request& r : batch) {
    obs::Add(Metrics().submitted, 1);
    const size_t depth = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool forced_shed =
        fault::GlobalFaultsEnabled() &&
        fault::GlobalInjector().Fire(fault::Point::kAllocFailure);
    if (forced_shed ||
        (options_.shed_watermark > 0 && depth > options_.shed_watermark)) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      obs::Add(Metrics().shed, 1);
      // A refused query's queue wait (in the batcher, if one took it) ends
      // at the refusal.
      obs::RecordSpan(obs::Stage::kQueueWait,
                      TicksToNanos(TickNow() - r.taken_ticks), r.spec.trace);
      QueryResult refused;
      refused.shed = true;
      refused.degraded = true;
      // Shed queries are degradation by definition — the recorder admits
      // them with zero served latency (nothing ran).
      ObserveQuery(r.spec, refused, 0);
      r.promise.set_value(std::move(refused));
      continue;
    }
    if (options_.brownout_watermark > 0 &&
        depth > options_.brownout_watermark) {
      // Brownout: admit, but cheaper — recall degrades before latency does.
      QuerySpec& q = r.spec;
      q.beam_width = std::min(q.beam_width,
                              std::max(kBrownoutMinBeam, q.beam_width / 2));
      if (q.rerank > 1) q.rerank = std::max<size_t>(q.k, q.rerank / 2);
      obs::Add(Metrics().brownout, 1);
    }
    admitted->push_back(std::move(r));
  }
  if (admitted->empty()) return;
  pool_.Submit([this, admitted] { Serve(*admitted); });
}

void ServingEngine::Serve(std::vector<Request>& batch) const {
  // Taken-to-start delay (the batcher's wait included): the queueing
  // component of tail latency, kept apart from the service span that
  // follows.
  const uint64_t start = TickNow();
  std::vector<QuerySpec> specs;
  specs.reserve(batch.size());
  for (const Request& r : batch) {
    obs::RecordSpan(obs::Stage::kQueueWait,
                    TicksToNanos(start - r.taken_ticks), r.spec.trace);
    specs.push_back(r.spec);
  }
  std::vector<QueryResult> results(batch.size());
  {
    // Backends put each uniform run's spans into the run's first query's
    // trace; the batch's service span goes to its first query's trace.
    obs::ScopedStage span(obs::Stage::kService, specs.front().trace);
    service_.SearchBatch(specs.data(), specs.size(), results.data());
  }
  inflight_.fetch_sub(batch.size(), std::memory_order_relaxed);
  const uint64_t done = TickNow();
  for (size_t i = 0; i < batch.size(); ++i) {
    ObserveQuery(specs[i], results[i],
                 TicksToNanos(done - batch[i].taken_ticks));
    batch[i].promise.set_value(std::move(results[i]));
  }
}

}  // namespace rpq::serve
