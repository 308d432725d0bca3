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

}  // namespace

void ObserveQuery(const QuerySpec& q, const QueryResult& r,
                  uint64_t latency_nanos) {
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
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> fut = promise->get_future();
  const bool observed = q.trace != nullptr || obs::MetricsEnabled();
  const bool recording = obs::GlobalFlightRecorder().enabled();
  if (observed) obs::Add(Metrics().submitted, 1);

  // Admission control: inspect the in-flight depth BEFORE enqueueing. A
  // shed query never touches the pool — its future resolves right here with
  // an empty degraded result, so overload cannot grow the queue unboundedly.
  // The kAllocFailure injection point models allocation pressure as a forced
  // shed (the refusal path a real allocator failure would take).
  const size_t depth = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool forced_shed =
      fault::GlobalFaultsEnabled() &&
      fault::GlobalInjector().Fire(fault::Point::kAllocFailure);
  if (forced_shed ||
      (options_.shed_watermark > 0 && depth > options_.shed_watermark)) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (observed) {
      obs::Add(Metrics().shed, 1);
      obs::Add(Metrics().completed, 1);
    }
    QueryResult refused;
    refused.shed = true;
    refused.degraded = true;
    // Shed queries are degradation by definition — the recorder admits them
    // with zero served latency (nothing ran).
    ObserveQuery(q, refused, 0);
    promise->set_value(std::move(refused));
    return fut;
  }

  QuerySpec admitted = q;
  if (options_.brownout_watermark > 0 && depth > options_.brownout_watermark) {
    // Brownout: admit, but cheaper — recall degrades before latency does.
    const size_t scaled = static_cast<size_t>(
        static_cast<double>(q.beam_width) * options_.brownout_beam_factor);
    admitted.beam_width =
        std::min(q.beam_width, std::max(options_.brownout_min_beam, scaled));
    if (admitted.rerank > 1) admitted.rerank = std::max<size_t>(q.k, admitted.rerank / 2);
    if (observed) obs::Add(Metrics().brownout, 1);
  }

  pool_.Submit([this, q = admitted, promise, observed, recording,
                submit_ticks = (observed || recording) ? TickNow() : 0] {
    if (observed) {
      // Submit-to-start delay: the queueing component of tail latency, kept
      // separate from the service span that follows.
      obs::RecordSpan(obs::Stage::kQueueWait,
                      TicksToNanos(TickNow() - submit_ticks), q.trace);
    }
    QueryResult result;
    {
      obs::ScopedStage span(obs::Stage::kService, q.trace);
      result = service_.Search(q);
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (observed) obs::Add(Metrics().completed, 1);
    // Recorded latency spans queue wait + service + simulated I/O — the
    // latency the caller experienced, which is what makes a query "slow".
    if (recording) {
      ObserveQuery(q, result,
                   TicksToNanos(TickNow() - submit_ticks) +
                       static_cast<uint64_t>(result.simulated_io_seconds * 1e9));
    }
    promise->set_value(std::move(result));
  });
  return fut;
}

void ServingEngine::Execute(std::function<void()> fn) const {
  pool_.Submit(std::move(fn));
}

}  // namespace rpq::serve
