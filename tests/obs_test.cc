// Observability subsystem tests: the lock-free registry sums concurrent
// increments exactly (this file is in the TSan CI job), snapshots taken
// while writers run are consistent and monotonic, histogram-derived
// percentiles stay within one bucket width of the exact sorted-vector
// reference the load generator used to compute, the JSON snapshot
// round-trips through the in-repo parser, and per-query traces record the
// stages the backends actually ran.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/memory_index.h"
#include "data/synthetic.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "quant/pq.h"
#include "serve/loadgen.h"

namespace rpq {
namespace {

// Registry state is process-global, so every test (a) sets the enabled flag
// it needs explicitly and restores it, and (b) uses metric names unique to
// itself — values accumulate across tests within this binary.
class MetricsOn {
 public:
  MetricsOn() { obs::SetMetricsEnabled(true); }
  ~MetricsOn() { obs::SetMetricsEnabled(false); }
};

uint64_t CounterValue(const obs::Snapshot& snap, const std::string& name) {
  const obs::CounterSnapshot* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

// ------------------------------------------------------ bucket geometry ----

TEST(HistogramGeometryTest, BucketRoundTrip) {
  // Every value lands in a bucket whose [lower, lower + width) range holds
  // it; indices are monotone in the value.
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 100; ++v) values.push_back(v);
  for (int shift = 3; shift < 63; ++shift) {
    const uint64_t p = uint64_t{1} << shift;
    values.insert(values.end(), {p - 1, p, p + 1, p + p / 3});
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) values.push_back(rng());

  for (uint64_t v : values) {
    const uint32_t idx = obs::BucketIndexFor(v);
    ASSERT_LT(idx, obs::kNumBuckets) << v;
    const uint64_t lo = obs::BucketLowerBound(idx);
    const uint64_t width = obs::BucketWidth(idx);
    EXPECT_LE(lo, v) << v;
    EXPECT_LT(v - lo, width) << v;
  }
  std::sort(values.begin(), values.end());
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(obs::BucketIndexFor(values[i - 1]),
              obs::BucketIndexFor(values[i]));
  }
}

TEST(HistogramDataTest, ExactFieldsAndMerge) {
  obs::HistogramData a, b;
  a.Record(3);
  a.Record(100);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 3u + 100u + 1000000u);
  EXPECT_EQ(a.max, 1000000u);
  EXPECT_DOUBLE_EQ(a.Mean(), (3.0 + 100.0 + 1000000.0) / 3.0);
}

TEST(HistogramDataTest, PercentileWithinOneBucketWidth) {
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(11.0, 1.0);  // ~60us-scale nanos
  std::vector<uint64_t> samples(5000);
  obs::HistogramData hist;
  for (auto& s : samples) {
    s = static_cast<uint64_t>(dist(rng));
    hist.Record(s);
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    // The same rank rule the exact summary uses.
    const size_t idx = std::min(
        static_cast<size_t>(p * (samples.size() - 1) + 0.5), samples.size() - 1);
    const uint64_t exact = samples[idx];
    const double est = hist.Percentile(p);
    const uint64_t width = obs::BucketWidth(obs::BucketIndexFor(exact));
    EXPECT_NEAR(est, static_cast<double>(exact), static_cast<double>(width))
        << "p=" << p;
  }
}

// The loadgen satellite: the histogram-backed summary tracks the exact
// sorted-vector one within a bucket width on the same samples.
TEST(LoadgenSummaryTest, HistogramSummaryMatchesExactWithinBucketWidth) {
  std::mt19937_64 rng(9);
  std::lognormal_distribution<double> dist(-8.0, 0.8);  // ~0.3ms-scale secs
  std::vector<double> seconds(4000);
  obs::HistogramData hist;
  for (auto& s : seconds) {
    s = dist(rng);
    hist.Record(static_cast<uint64_t>(s * 1e9));
  }
  const serve::LatencySummary exact = serve::SummarizeLatencies(seconds);
  const serve::LatencySummary est = serve::SummarizeHistogramNanos(hist);

  struct Pct {
    double exact_ms, est_ms;
  };
  for (const Pct& p : {Pct{exact.p50_ms, est.p50_ms},
                       Pct{exact.p95_ms, est.p95_ms},
                       Pct{exact.p99_ms, est.p99_ms}}) {
    const uint64_t nanos = static_cast<uint64_t>(p.exact_ms * 1e6);
    const double width_ms =
        obs::BucketWidth(obs::BucketIndexFor(nanos)) / 1e6;
    EXPECT_NEAR(p.est_ms, p.exact_ms, width_ms);
  }
  // mean/max are tracked exactly (up to the double->nanos truncation).
  EXPECT_NEAR(est.mean_ms, exact.mean_ms, exact.mean_ms * 1e-6 + 1e-6);
  EXPECT_NEAR(est.max_ms, exact.max_ms, exact.max_ms * 1e-6 + 1e-6);
}

// --------------------------------------------------------- the registry ----

TEST(RegistryTest, RegistrationIsIdempotent) {
  const obs::CounterId a = obs::GetCounter("test.idempotent");
  const obs::CounterId b = obs::GetCounter("test.idempotent");
  EXPECT_EQ(a, b);
  const obs::HistogramId h1 = obs::GetHistogram("test.idempotent_h");
  const obs::HistogramId h2 = obs::GetHistogram("test.idempotent_h");
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsOn on;
  const obs::CounterId ones = obs::GetCounter("test.concurrent_ones");
  const obs::CounterId threes = obs::GetCounter("test.concurrent_threes");
  const obs::HistogramId hist = obs::GetHistogram("test.concurrent_hist");
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        obs::Add(ones, 1);
        obs::Add(threes, 3);
        obs::Record(hist, t * kPerThread + i);
      }
    });
  }
  for (auto& w : workers) w.join();

  const obs::Snapshot snap = obs::TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "test.concurrent_ones"), kThreads * kPerThread);
  EXPECT_EQ(CounterValue(snap, "test.concurrent_threes"),
            3u * kThreads * kPerThread);
  const obs::HistogramSnapshot* h = snap.FindHistogram("test.concurrent_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data.count, kThreads * kPerThread);
  // Sum of 0 .. kThreads*kPerThread-1, and the per-bucket tallies agree
  // with the total.
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(h->data.sum, n * (n - 1) / 2);
  EXPECT_EQ(h->data.max, n - 1);
  uint64_t bucket_total = 0;
  for (uint64_t b : h->data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h->data.count);
}

TEST(RegistryTest, ThreadExitRetirementPreservesCounts) {
  MetricsOn on;
  const obs::CounterId id = obs::GetCounter("test.retired");
  // The shard of an exited thread is folded into the retired accumulator;
  // its counts survive the thread.
  for (int round = 0; round < 4; ++round) {
    std::thread([&] { obs::Add(id, 250); }).join();
  }
  EXPECT_EQ(CounterValue(obs::TakeSnapshot(), "test.retired"), 1000u);
}

TEST(RegistryTest, SnapshotWhileWritingIsMonotonicAndComplete) {
  MetricsOn on;
  const obs::CounterId id = obs::GetCounter("test.monotonic");
  const obs::HistogramId hist = obs::GetHistogram("test.monotonic_h");
  constexpr uint64_t kTotal = 200000;
  std::thread writer([&] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      obs::Add(id, 1);
      obs::Record(hist, 64);
    }
  });
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const obs::Snapshot snap = obs::TakeSnapshot();
    const uint64_t v = CounterValue(snap, "test.monotonic");
    EXPECT_GE(v, last);
    EXPECT_LE(v, kTotal);
    const obs::HistogramSnapshot* h = snap.FindHistogram("test.monotonic_h");
    ASSERT_NE(h, nullptr);
    // A single-valued histogram is internally consistent in any snapshot:
    // the bucket tally, count, and sum describe the same set of samples.
    EXPECT_EQ(h->data.buckets[obs::BucketIndexFor(64)], h->data.count);
    EXPECT_EQ(h->data.sum, h->data.count * 64);
    last = v;
  }
  writer.join();
  EXPECT_EQ(CounterValue(obs::TakeSnapshot(), "test.monotonic"), kTotal);
}

TEST(RegistryTest, DisabledRecordsNothing) {
  obs::SetMetricsEnabled(false);
  const obs::CounterId id = obs::GetCounter("test.disabled");
  const obs::HistogramId hist = obs::GetHistogram("test.disabled_h");
  obs::Add(id, 17);
  obs::Record(hist, 17);
  const obs::Snapshot snap = obs::TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "test.disabled"), 0u);
  const obs::HistogramSnapshot* h = snap.FindHistogram("test.disabled_h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data.count, 0u);
}

TEST(RegistryTest, StageHistogramsPreRegistered) {
  // The stable JSON key set: every stage histogram exists (count may be 0)
  // once RegisterStageMetrics ran, as it does in the ServingEngine ctor.
  obs::RegisterStageMetrics();
  const obs::Snapshot snap = obs::TakeSnapshot();
  for (const char* name :
       {"stage.route_ns", "stage.scan_ns", "stage.beam_ns",
        "stage.lut_build_ns", "stage.refine_ns", "stage.merge_ns",
        "stage.queue_wait_ns", "stage.service_ns", "stage.io_ns"}) {
    EXPECT_NE(snap.FindHistogram(name), nullptr) << name;
  }
}

// ------------------------------------------------------- JSON round trip ----

TEST(JsonParserTest, ParsesStructureAndEscapes) {
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(
      R"({"a": [1, 2.5, -3e2], "s": "x\n\"A", "b": true, "n": null})", &v,
      &err))
      << err;
  ASSERT_TRUE(v.is_object());
  const obs::JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(v.Find("s")->string, "x\n\"A");
  EXPECT_TRUE(v.Find("b")->bool_value);
  EXPECT_EQ(v.Find("n")->type, obs::JsonValue::Type::kNull);
}

TEST(JsonParserTest, RejectsMalformed) {
  obs::JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::ParseJson("{", &v, &err));
  EXPECT_FALSE(obs::ParseJson("{} trailing", &v, &err));
  EXPECT_FALSE(obs::ParseJson(R"({"a": })", &v, nullptr));
  EXPECT_FALSE(obs::ParseJson(R"({"a": "\x"})", &v, nullptr));
  EXPECT_FALSE(obs::ParseJson("", &v, nullptr));
}

TEST(JsonRoundTripTest, DumpJsonParsesBackWithExactValues) {
  MetricsOn on;
  const obs::CounterId c = obs::GetCounter("test.json_counter");
  const obs::HistogramId h = obs::GetHistogram("test.json_hist");
  obs::Add(c, 12345);
  for (uint64_t v : {10u, 20u, 30u, 40u}) obs::Record(h, v);

  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(obs::DumpJson(), &root, &err)) << err;
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("version"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("version")->number, 1.0);

  const obs::JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const obs::JsonValue* cv = counters->Find("test.json_counter");
  ASSERT_NE(cv, nullptr);
  EXPECT_DOUBLE_EQ(cv->number, 12345.0);

  const obs::JsonValue* hv = root.Find("histograms");
  ASSERT_NE(hv, nullptr);
  const obs::JsonValue* hist = hv->Find("test.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 4.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->number, 100.0);
  EXPECT_DOUBLE_EQ(hist->Find("max")->number, 40.0);
  EXPECT_DOUBLE_EQ(hist->Find("mean")->number, 25.0);
  ASSERT_NE(hist->Find("p50"), nullptr);
  ASSERT_NE(hist->Find("p95"), nullptr);
  ASSERT_NE(hist->Find("p99"), nullptr);
  const obs::JsonValue* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // [lo, width, count] triples whose counts cover every sample.
  double covered = 0;
  for (const obs::JsonValue& b : buckets->array) {
    ASSERT_TRUE(b.is_array());
    ASSERT_EQ(b.array.size(), 3u);
    EXPECT_GT(b.array[2].number, 0.0);
    covered += b.array[2].number;
  }
  EXPECT_DOUBLE_EQ(covered, 4.0);
}

// ------------------------------------------------------ per-query traces ----

TEST(QueryTraceTest, AccumulatesAndFormats) {
  obs::QueryTrace trace;
  trace.AddSpan(obs::Stage::kBeam, 1000);
  trace.AddSpan(obs::Stage::kBeam, 500);
  trace.AddSpan(obs::Stage::kMerge, 200);
  trace.AddSpan(obs::Stage::kQueueWait, 9999);
  trace.AddSpan(obs::Stage::kIo, 5000);
  EXPECT_EQ(trace.total(obs::Stage::kBeam).nanos, 1500u);
  EXPECT_EQ(trace.total(obs::Stage::kBeam).spans, 2u);
  EXPECT_EQ(trace.total(obs::Stage::kIo).nanos, 5000u);
  // Queue wait overlaps the pipeline, and io is simulated device time, not
  // wall time; both are excluded from the pipeline sum.
  EXPECT_EQ(trace.PipelineNanos(), 1700u);
  const std::string s = trace.Format();
  EXPECT_NE(s.find("beam"), std::string::npos);
  EXPECT_NE(s.find("merge"), std::string::npos);
  trace.Clear();
  EXPECT_EQ(trace.total(obs::Stage::kBeam).spans, 0u);
  EXPECT_EQ(trace.PipelineNanos(), 0u);
}

TEST(QueryTraceTest, MemoryIndexRecordsStages) {
  // Metrics stay OFF: a trace alone must be enough to get spans.
  obs::SetMetricsEnabled(false);
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 600, 4, 11, &base, &queries);
  graph::VamanaOptions vopt;
  vopt.degree = 16;
  auto graph = graph::BuildVamana(base, vopt);
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 16;
  popt.nbits = 4;
  auto model = quant::PqQuantizer::Train(base, popt);
  auto index = core::MemoryIndex::Build(base, graph, *model);

  obs::QueryTrace trace;
  auto out = index->Search(queries[0], 5, {32, 5},
                           core::DistanceMode::kFastScan, {}, &trace);
  ASSERT_FALSE(out.results.empty());
  EXPECT_GE(trace.total(obs::Stage::kLutBuild).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kBeam).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kRefine).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kMerge).spans, 1u);
  EXPECT_GT(trace.total(obs::Stage::kBeam).nanos, 0u);
  // The stats the trace rides with are populated on the FastScan path too.
  EXPECT_GT(out.stats.hops, 0u);
  EXPECT_GT(out.stats.dist_comps, 0u);
}

TEST(QueryTraceTest, IvfIndexRecordsStages) {
  obs::SetMetricsEnabled(false);
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 600, 4, 13, &base, &queries);
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 16;
  popt.nbits = 4;
  auto model = quant::PqQuantizer::Train(base, popt);
  ivf::IvfOptions iopt;
  iopt.nlist = 8;
  auto index = ivf::IvfIndex::Build(base, *model, iopt);

  obs::QueryTrace trace;
  ivf::IvfSearchOptions sopt;
  sopt.nprobe = 4;
  sopt.trace = &trace;
  auto out = index->Search(queries[0], 5, sopt);
  ASSERT_FALSE(out.results.empty());
  // The shared per-query table build is query work too: it must land in a
  // stage, not in the trace's unaccounted gap.
  EXPECT_GE(trace.total(obs::Stage::kLutBuild).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kRoute).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kScan).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kRefine).spans, 1u);
  EXPECT_GE(trace.total(obs::Stage::kMerge).spans, 1u);
}

TEST(ScopedStageTest, RecordsIntoTraceWithoutMetrics) {
  obs::SetMetricsEnabled(false);
  obs::QueryTrace trace;
  {
    obs::ScopedStage span(obs::Stage::kScan, &trace);
  }
  EXPECT_EQ(trace.total(obs::Stage::kScan).spans, 1u);
  // Null trace + metrics off: inert (nothing observable, must not crash).
  {
    obs::ScopedStage span(obs::Stage::kScan, nullptr);
  }
  obs::RecordSpan(obs::Stage::kIo, 123, nullptr);
}

// visited_hits satellite: beam search reports visited-table hits, and a
// denser re-exploration (bigger beam over a small graph) produces some.
TEST(SearchStatsTest, VisitedHitsPopulated) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 400, 2, 17, &base, &queries);
  graph::VamanaOptions vopt;
  vopt.degree = 24;
  auto graph = graph::BuildVamana(base, vopt);
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 16;
  popt.nbits = 4;
  auto model = quant::PqQuantizer::Train(base, popt);
  auto index = core::MemoryIndex::Build(base, graph, *model);
  auto out =
      index->Search(queries[0], 10, {64, 10}, core::DistanceMode::kFastScan);
  EXPECT_GT(out.stats.visited_hits, 0u);
}

// ------------------------------------------------------- windowed views ----

TEST(WindowedViewTest, CounterDeltasAndRates) {
  obs::Snapshot older, newer;
  older.counters = {{"win.a", 100}, {"win.gone", 5}, {"win.back", 10}};
  newer.counters = {{"win.a", 160}, {"win.fresh", 30}, {"win.back", 7}};
  const obs::WindowedView view = obs::DiffSnapshots(older, newer, 2.0);
  EXPECT_EQ(view.Delta("win.a"), 60u);
  EXPECT_DOUBLE_EQ(view.Rate("win.a"), 30.0);
  // Registered after the baseline: diffs against zero.
  EXPECT_EQ(view.Delta("win.fresh"), 30u);
  // Absent from the newer snapshot: dropped entirely.
  EXPECT_EQ(view.FindCounter("win.gone"), nullptr);
  // Went backwards (not really the same process): clamps, never wraps.
  EXPECT_EQ(view.Delta("win.back"), 0u);
  // Unknown name reads as zero.
  EXPECT_EQ(view.Delta("win.never"), 0u);
}

TEST(WindowedViewTest, HistogramIntervalPercentiles) {
  // Baseline: 1000 fast samples. Window: 100 slow ones. The cumulative view
  // p50 stays fast; the interval view must see only the slow samples.
  obs::HistogramData base_data;
  for (int i = 0; i < 1000; ++i) base_data.Record(1000);
  obs::HistogramData newer_data = base_data;
  for (int i = 0; i < 100; ++i) newer_data.Record(1000000);

  obs::Snapshot older, newer;
  older.histograms.push_back({"win.lat", base_data});
  newer.histograms.push_back({"win.lat", newer_data});
  const obs::WindowedView view = obs::DiffSnapshots(older, newer, 1.0);
  const obs::WindowedHistogram* h = view.FindHistogram("win.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->interval.count, 100u);
  EXPECT_EQ(h->interval.sum, 100u * 1000000u);
  // All interval mass sits at ~1ms; p50 must be within one bucket of it.
  const uint32_t b = obs::BucketIndexFor(1000000);
  EXPECT_GE(h->interval.Percentile(0.5), obs::BucketLowerBound(b));
  EXPECT_LE(h->interval.Percentile(0.5),
            obs::BucketLowerBound(b) + obs::BucketWidth(b));
}

TEST(WindowedViewTest, SummarizeServingRatios) {
  obs::Snapshot older, newer;
  older.counters = {{"serve.completed", 0}, {"serve.shed", 0},
                    {"serve.deadline_exceeded", 0}};
  newer.counters = {{"serve.completed", 200}, {"serve.shed", 20},
                    {"serve.deadline_exceeded", 10}};
  const obs::ServingWindow w =
      obs::SummarizeServing(obs::DiffSnapshots(older, newer, 4.0));
  EXPECT_EQ(w.completed, 200u);
  EXPECT_DOUBLE_EQ(w.qps, 50.0);
  EXPECT_DOUBLE_EQ(w.shed_ratio, 0.1);
  EXPECT_DOUBLE_EQ(w.deadline_ratio, 0.05);
  EXPECT_DOUBLE_EQ(w.p50_ms, 0.0);  // no latency histogram in the window
}

TEST(WindowedViewTest, SnapshotFromJsonRoundTrip) {
  MetricsOn on;
  const auto counter = obs::GetCounter("winjson.counter");
  const auto hist = obs::GetHistogram("winjson.hist");
  obs::Add(counter, 42);
  for (uint64_t v : {10u, 500u, 70000u, 1000000u}) obs::Record(hist, v);

  const obs::Snapshot live = obs::TakeSnapshot();
  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(obs::DumpJson(live), &root, &err)) << err;
  obs::Snapshot parsed;
  ASSERT_TRUE(obs::SnapshotFromJson(root, &parsed, &err)) << err;

  EXPECT_EQ(CounterValue(parsed, "winjson.counter"),
            CounterValue(live, "winjson.counter"));
  const obs::HistogramSnapshot* live_h = live.FindHistogram("winjson.hist");
  const obs::HistogramSnapshot* parsed_h = parsed.FindHistogram("winjson.hist");
  ASSERT_NE(live_h, nullptr);
  ASSERT_NE(parsed_h, nullptr);
  EXPECT_EQ(parsed_h->data.count, live_h->data.count);
  EXPECT_EQ(parsed_h->data.sum, live_h->data.sum);
  EXPECT_EQ(parsed_h->data.max, live_h->data.max);
  for (uint32_t b = 0; b < obs::kNumBuckets; ++b) {
    ASSERT_EQ(parsed_h->data.buckets[b], live_h->data.buckets[b]) << b;
  }
  // A diff of a snapshot against its own round trip is all zeros.
  const obs::WindowedView view = obs::DiffSnapshots(parsed, live, 1.0);
  EXPECT_EQ(view.Delta("winjson.counter"), 0u);
  EXPECT_EQ(view.FindHistogram("winjson.hist")->interval.count, 0u);
}

// ------------------------------------------------------ flight recorder ----

obs::QueryObservation HealthyObservation(uint64_t latency_us) {
  obs::QueryObservation o;
  o.latency_us = latency_us;
  o.k = 10;
  o.width = 64;
  return o;
}

TEST(FlightRecorderTest, AdmissionPolicy) {
  obs::FlightRecorder rec;
  obs::FlightRecorderOptions opt;
  opt.capacity = 16;
  opt.slow_us = 1000;
  rec.Configure(opt);
  rec.SetEnabled(true);

  rec.Observe(HealthyObservation(10));    // fast + healthy: not admitted
  rec.Observe(HealthyObservation(5000));  // slow: admitted
  obs::QueryObservation degraded = HealthyObservation(10);
  degraded.deadline_exceeded = true;
  degraded.degraded = true;
  rec.Observe(degraded);                  // degraded: admitted despite speed

  const auto records = rec.Dump();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].latency_us, 5000u);
  EXPECT_STREQ(records[0].reason, "slow");
  EXPECT_TRUE(records[1].deadline_exceeded);
  EXPECT_STREQ(records[1].reason, "degraded");
  EXPECT_EQ(rec.observed(), 3u);
  EXPECT_EQ(rec.recorded(), 2u);

  rec.SetEnabled(false);
  rec.Observe(HealthyObservation(999999));  // disabled: invisible
  EXPECT_EQ(rec.observed(), 3u);
}

TEST(FlightRecorderTest, SamplingAdmitsOneInN) {
  obs::FlightRecorder rec;
  obs::FlightRecorderOptions opt;
  opt.capacity = 64;
  opt.sample_every = 10;
  rec.Configure(opt);
  rec.SetEnabled(true);
  for (int i = 0; i < 100; ++i) rec.Observe(HealthyObservation(5));
  EXPECT_EQ(rec.recorded(), 10u);
  for (const auto& r : rec.Dump()) EXPECT_STREQ(r.reason, "sample");
}

TEST(FlightRecorderTest, CapacityWrapKeepsNewest) {
  obs::FlightRecorder rec;
  obs::FlightRecorderOptions opt;
  opt.capacity = 8;
  opt.slow_us = 1;  // admit everything
  rec.Configure(opt);
  rec.SetEnabled(true);
  for (uint64_t i = 1; i <= 20; ++i) rec.Observe(HealthyObservation(i));
  const auto records = rec.Dump();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first order, holding exactly the last 8 admissions (13..20).
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].latency_us, 13u + i);
    EXPECT_EQ(records[i].seq, 12u + i);
  }
  EXPECT_EQ(rec.recorded(), 20u);
}

TEST(FlightRecorderTest, DumpJsonParsesAndCarriesStages) {
  obs::FlightRecorder rec;
  obs::FlightRecorderOptions opt;
  opt.capacity = 4;
  opt.slow_us = 1;
  rec.Configure(opt);
  rec.SetEnabled(true);

  obs::QueryTrace trace;
  trace.AddSpan(obs::Stage::kScan, 12345);
  obs::QueryObservation o = HealthyObservation(777);
  o.trace = &trace;
  rec.Observe(o);

  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(rec.DumpJson(), &root, &err)) << err;
  const obs::JsonValue* records = root.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_TRUE(records->is_array());
  ASSERT_EQ(records->array.size(), 1u);
  const obs::JsonValue* latency = records->array[0].Find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->number, 777.0);
  const obs::JsonValue* scan = records->array[0].FindPath("stages.scan_ns");
  ASSERT_NE(scan, nullptr);
  EXPECT_DOUBLE_EQ(scan->number, 12345.0);
}

// Concurrent record-while-dump: writers admit on every call while a reader
// dumps continuously. TSan (this file is in the CI TSan job) checks the
// synchronization; the assertions check no dump ever sees a torn record.
TEST(FlightRecorderTest, ConcurrentRecordWhileDump) {
  obs::FlightRecorder rec;
  obs::FlightRecorderOptions opt;
  opt.capacity = 32;
  opt.slow_us = 1;  // admit everything: maximum writer contention
  rec.Configure(opt);
  rec.SetEnabled(true);

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& r : rec.Dump()) {
        // Every admitted record is internally consistent: the marker the
        // writer stored in both fields must agree.
        ASSERT_EQ(r.latency_us, static_cast<uint64_t>(r.k));
      }
      (void)rec.DumpJson();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t marker = static_cast<uint64_t>(w) * kPerWriter + i + 1;
        obs::QueryObservation o;
        o.latency_us = marker;
        o.k = static_cast<uint32_t>(marker);
        rec.Observe(o);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(rec.recorded(), kWriters * kPerWriter);
  EXPECT_EQ(rec.Dump().size(), 32u);
}

// -------------------------------------------------------- http exporter ----

TEST(HttpExporterTest, RoutesAndPrometheusFormat) {
  MetricsOn on;
  const auto counter = obs::GetCounter("httpx.requests");
  obs::Add(counter, 7);
  const auto hist = obs::GetHistogram("httpx.lat_ns");
  obs::Record(hist, 1500);

  obs::HttpExporter exporter;
  const obs::HttpResponse metrics = exporter.HandleRequest("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE rpq_httpx_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("rpq_httpx_requests 7"), std::string::npos);
  EXPECT_NE(metrics.body.find("rpq_httpx_lat_ns_count 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("rpq_httpx_lat_ns_sum 1500"), std::string::npos);
  EXPECT_NE(metrics.body.find("rpq_httpx_lat_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);

  const obs::HttpResponse json = exporter.HandleRequest("/metrics.json");
  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(json.body, &root, &err)) << err;
  const obs::JsonValue* counters_obj = root.Find("counters");
  ASSERT_NE(counters_obj, nullptr);
  EXPECT_NE(counters_obj->Find("httpx.requests"), nullptr);

  const obs::HttpResponse health = exporter.HandleRequest("/health");
  EXPECT_EQ(health.status, 200);  // no degradation -> healthy
  ASSERT_TRUE(obs::ParseJson(health.body, &root, &err)) << err;
  const obs::JsonValue* healthy = root.Find("healthy");
  ASSERT_NE(healthy, nullptr);
  EXPECT_TRUE(healthy->bool_value);

  const obs::HttpResponse slow = exporter.HandleRequest("/slow");
  ASSERT_TRUE(obs::ParseJson(slow.body, &root, &err)) << err;
  EXPECT_NE(root.Find("records"), nullptr);

  EXPECT_EQ(exporter.HandleRequest("/nope").status, 404);
  EXPECT_EQ(exporter.HandleRequest("/").status, 200);
}

TEST(HttpExporterTest, LoopbackSocketRoundTrip) {
  MetricsOn on;
  obs::Add(obs::GetCounter("httpx.loopback"), 3);
  obs::HttpExporterOptions opt;
  opt.port = 0;  // ephemeral
  obs::HttpExporter exporter(opt);
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_GT(exporter.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(exporter.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("rpq_httpx_loopback 3"), std::string::npos);
  exporter.Stop();
  // Idempotent stop, and a second Start binds a fresh ephemeral port.
  exporter.Stop();
}

}  // namespace
}  // namespace rpq
