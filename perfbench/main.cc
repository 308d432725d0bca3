// rpqbench: one workload of the repo benchmark, end to end.
//
//   rpqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's data from the seed and computes brute-force
// ground truth. Then, kSetups times: sets the index up (setup_s is the
// median), warms up, runs the insert phase of a mixed workload and drives
// kClients closed-loop search clients for a third of --seconds. Finishes
// with a serial recall pass. --trace 0 reports the end-to-end metrics with
// the metrics registry off; --trace 1 reports the per-layer breakdown, from
// traced halves of the timed slices alternating with untraced ones. The last
// stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "loop.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "workloads.h"

namespace rpqbench {
namespace {

constexpr size_t kSetups = 3;      // set-up repeats; setup_s is the median
constexpr double kWarmupSeconds = 1.0;
// Timings are medians over windows; each timed part is cut into this many.
constexpr size_t kWindowsPerPart = 8;
constexpr size_t kInsertEvery = 10;  // 90/10 search/insert mix
// Operating-point guard: outside this band the quantized estimate no longer
// decides the answer (saturated) or the point is broken.
constexpr double kRecallLow = 0.6, kRecallHigh = 0.97;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      a->trace = val == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out;
    char buf[256];
    for (const Metric& m : metrics_) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.empty() ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      out += buf;
    }
    return "{" + out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double CounterDelta(const rpq::obs::Snapshot& before,
                    const rpq::obs::Snapshot& after, const char* name) {
  const auto* a = after.FindCounter(name);
  const auto* b = before.FindCounter(name);
  return static_cast<double>((a ? a->value : 0) - (b ? b->value : 0));
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Untraced runs keep the registry off whatever the environment says; the
  // traced phase turns it on for itself only.
  rpq::obs::SetMetricsEnabled(false);

  rpq::Timer timer;
  wl->MakeData(args.seed);
  // A static index (no insert pool) is scored against ground truth taken
  // up front; a mixed one after its insert phase.
  const bool is_static = wl->pool_size() == 0;
  std::vector<std::vector<rpq::Neighbor>> static_gt;
  if (is_static) static_gt = wl->GroundTruth({});
  std::printf("# rpqbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "simd=%s clients=%zu base=%zu queries=%zu pool=%zu setups=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              rpq::simd::ActiveKernelName(), kClients, wl->base_size(),
              wl->queries().size(), wl->pool_size(), kSetups);
  std::printf("# why: %s\n", wl->why());
  std::printf("# data + ground truth: %.2f s (untimed)\n",
              timer.ElapsedSeconds());

  // ---- kSetups rounds. Each sets the index up from the raw vectors (timed
  // as setup_s), takes serial reference answers on it, warms up, runs a
  // mixed workload's insert phase, then one slice of the timed phase.
  // Spreading the slices between the set-ups makes the windowed medians
  // span the whole run, so a shift in host speed that lasts less than half
  // of it cannot move them. ----
  const rpq::Dataset& queries = wl->queries();
  const size_t k = wl->Spec(queries[0]).k;
  std::vector<std::vector<rpq::Neighbor>> reference(queries.size());
  LoopTarget target;
  target.num_queries = queries.size();
  target.spec = [&](size_t q) { return wl->Spec(queries[q]); };
  target.check = [&](size_t q, const rpq::serve::QueryResult& r) {
    if (r.results.size() < k || r.degraded) return false;
    return !is_static || r.results == reference[q];
  };
  target.insert = [&](size_t row) { return wl->Insert(row); };

  size_t attempted = 0, failed = 0;
  auto run_phase = [&](const LoopOptions& o) {
    LoopResult r = RunLoop(target, o);
    attempted += r.searches() + r.insert_ms.size();
    failed += r.failed_searches;
    return r;
  };

  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> layer_samples;
  double bytes_per_vector = 0;
  LayerValues extra;
  // Insert phases of all rounds; ids of the last one, whose index serves
  // the recall pass.
  std::vector<double> insert_ms, mixed_ms;
  std::vector<uint32_t> inserted_ids;
  size_t missing_inserts = 0;
  std::vector<LoopResult> untraced, traced;
  double refine_candidates = 0;
  // A traced run cuts each slice into an untraced and a traced half, in
  // alternating order, so both sides see the same host state and their p50
  // gap is the tracing overhead rather than drift.
  const size_t parts = args.trace ? 2 : 1;
  const double part_seconds = args.seconds / (kSetups * parts);
  const double window_s = part_seconds / kWindowsPerPart;
  for (size_t round = 0; round < kSetups; ++round) {
    LayerValues layers;
    timer.Reset();
    wl->Setup(&layers);
    setup_s.push_back(timer.ElapsedSeconds());
    for (const auto& [key, v] : layers) layer_samples[key].push_back(v);
    if (round == 0) {
      bytes_per_vector = wl->BytesPerVector();
      // Per-layer values that need extra library calls: taken on a freshly
      // built index (before any insert), outside every timed phase.
      if (args.trace) wl->ExtraLayers(&extra);
    }

    const rpq::serve::SearchService& service = wl->service();
    target.service = &service;
    for (size_t q = 0; q < queries.size(); ++q) {
      reference[q] = service.Search(wl->Spec(queries[q])).results;
    }
    LoopOptions warm;
    warm.seconds = kWarmupSeconds;
    RunLoop(target, warm);

    // Insert phase (mixed workloads): a 90/10 search/insert mix until the
    // pool is used up, capped at --seconds. A fixed number of inserts leaves
    // the timed slice the same index size on every run.
    if (!is_static) {
      LoopOptions o;
      o.seconds = args.seconds;
      o.insert_every = kInsertEvery;
      o.pool_size = wl->pool_size();
      LoopResult mixed = run_phase(o);
      insert_ms.insert(insert_ms.end(), mixed.insert_ms.begin(),
                       mixed.insert_ms.end());
      mixed_ms.insert(mixed_ms.end(), mixed.search_ms.begin(),
                      mixed.search_ms.end());
      inserted_ids = std::move(mixed.inserted_ids);
      missing_inserts += wl->CountMissingInserts(inserted_ids);
    }

    // Searches only.
    for (size_t i = 0; i < parts; ++i) {
      const bool trace_part = args.trace && (round + i) % 2 == 1;
      rpq::obs::Snapshot before;
      if (trace_part) {
        rpq::obs::SetMetricsEnabled(true);
        before = rpq::obs::TakeSnapshot();
      }
      LoopOptions o;
      o.seconds = part_seconds;
      o.traced = trace_part;
      LoopResult r = run_phase(o);
      if (trace_part) {
        refine_candidates += CounterDelta(before, rpq::obs::TakeSnapshot(),
                                          "refine.candidates");
        rpq::obs::SetMetricsEnabled(false);
      }
      (trace_part ? traced : untraced).push_back(std::move(r));
    }
  }
  failed += missing_inserts;
  std::printf("# setup_s samples:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");

  // ---- Serial recall pass, after the timed phase. ----
  const auto gt = is_static ? static_gt : wl->GroundTruth(inserted_ids);
  const rpq::serve::SearchService& service = wl->service();
  double hits = 0, sim_io_s = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const rpq::serve::QueryResult r = service.Search(wl->Spec(queries[q]));
    ++attempted;
    if (!target.check(q, r)) ++failed;
    for (const rpq::Neighbor& n : r.results) {
      for (size_t j = 0; j < k && j < gt[q].size(); ++j) {
        if (gt[q][j].id == n.id) {
          ++hits;
          break;
        }
      }
    }
    sim_io_s += r.simulated_io_seconds;
  }
  const double recall = hits / (static_cast<double>(queries.size()) * k);
  const bool in_band = recall >= kRecallLow && recall <= kRecallHigh;
  const bool correct = failed == 0 && in_band;

  const WindowedStats windowed = Windowed(untraced, window_s);
  const double sim_io_ms = sim_io_s * 1e3 / queries.size();
  const double insert_p50 = Quantile(insert_ms, 0.5);
  const double insert_p99 = Quantile(insert_ms, 0.99);
  const double mixed_p50 = Quantile(mixed_ms, 0.5);
  const double mixed_p99 = Quantile(mixed_ms, 0.99);
  if (!is_static) {
    std::printf("# insert phases: %zu of %zu pool rows inserted in the last; "
                "%zu inserts and %zu searches in all; insert p50/p99 "
                "%.4f/%.4f ms; search p50/p99 %.4f/%.4f ms; missing inserts "
                "%zu\n",
                inserted_ids.size(), wl->pool_size(), insert_ms.size(),
                mixed_ms.size(), insert_p50, insert_p99, mixed_p50, mixed_p99,
                missing_inserts);
  }
  std::printf("# timed phase: %zu untraced windows of %.3f s; search p99 %.4f "
              "ms; failed %zu of %zu attempted operations (failed_ratio %.6f)\n",
              windowed.windows, window_s, windowed.p99_ms, failed,
              attempted, static_cast<double>(failed) / attempted);
  std::printf("# recall_at_10 %.4f (guard band %.2f-%.2f: %s); "
              "sim_io_ms_per_query %.4f (simulated, never in wall latency)\n",
              recall, kRecallLow, kRecallHigh, in_band ? "inside" : "OUTSIDE",
              sim_io_ms);

  Report report;
  if (!args.trace) {
    report.Add("recall_at_10", recall, "ratio");
    report.Add("qps", windowed.qps, "1/s");
    report.Add("p50_ms", windowed.p50_ms, "ms");
    report.Add("p95_ms", windowed.p95_ms, "ms");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("bytes_per_vector", bytes_per_vector, "B.exact");
    report.Add("success_ratio", 1.0 - static_cast<double>(failed) / attempted,
               "ratio.exact");
  } else {
    auto layer = [&](const char* name) {
      auto it = layer_samples.find(name);
      return it == layer_samples.end() ? 0.0 : Median(it->second);
    };
    auto get = [&](const LayerValues& m, const char* name) {
      auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second;
    };
    double n = 0, search_us_total = 0;
    uint64_t stage_ns[rpq::obs::kNumStages] = {};
    for (const LoopResult& part : traced) {
      n += part.searches();
      search_us_total += part.search_us_total;
      for (size_t s = 0; s < rpq::obs::kNumStages; ++s) {
        stage_ns[s] += part.stage_ns[s];
      }
    }
    auto stage_us = [&](rpq::obs::Stage s) {
      return n > 0 ? stage_ns[static_cast<size_t>(s)] / n / 1e3 : 0.0;
    };
    using rpq::obs::Stage;
    const double search_us = n > 0 ? search_us_total / n : 0.0;
    // Wall stages only: the io stage is simulated device time.
    double wall_stages = 0;
    for (Stage s : {Stage::kRoute, Stage::kScan, Stage::kBeam, Stage::kLutBuild,
                    Stage::kRefine, Stage::kMerge}) {
      wall_stages += stage_us(s);
    }
    const double traced_p50 = Windowed(traced, window_s).p50_ms;

    report.Add("graph.build_s", layer("graph.build_s"), "s");
    report.Add("core.train_s", layer("core.train_s"), "s");
    report.Add("quant.train_s", layer("quant.train_s"), "s");
    report.Add("ivf.coarse_s", layer("ivf.coarse_s"), "s");
    report.Add("core.index_build_s", layer("core.index_build_s"), "s");
    report.Add("disk.index_build_s", layer("disk.index_build_s"), "s");
    report.Add("ivf.index_build_s", layer("ivf.index_build_s"), "s");
    report.Add("quant.kmeans_init_s", get(extra, "quant.kmeans_init_s"), "s");
    report.Add("quant.encode_s", get(extra, "quant.encode_s"), "s");
    report.Add("core.fwd_bwd_us", get(extra, "core.fwd_bwd_us"), "us");
    report.Add("core.features_ms", get(extra, "core.features_ms"), "ms");
    report.Add("serve.search_us", search_us, "us");
    report.Add("serve.p99_ms", windowed.p99_ms, "ms");
    report.Add("quant.lut_build_us", stage_us(Stage::kLutBuild), "us");
    report.Add("graph.beam_us", stage_us(Stage::kBeam), "us");
    report.Add("refine.refine_us", stage_us(Stage::kRefine), "us");
    report.Add("refine.merge_us", stage_us(Stage::kMerge), "us");
    report.Add("ivf.route_us", stage_us(Stage::kRoute), "us");
    report.Add("ivf.scan_us", stage_us(Stage::kScan), "us");
    report.Add("unaccounted_us", search_us - wall_stages, "us");
    for (const char* name :
         {"graph.hops_per_query", "graph.dist_comps_per_query",
          "graph.visited_hits_per_query", "disk.reads_per_query",
          "disk.io_waves_per_query"}) {
      report.Add(name, get(extra, name), "count.exact");
    }
    report.Add("disk.prefetch_hit_ratio", get(extra, "disk.prefetch_hit_ratio"),
               "ratio.exact");
    report.Add("disk.retries_per_query", get(extra, "disk.retries_per_query"),
               "count.exact");
    report.Add("disk.sim_io_ms_per_query", sim_io_ms, "ms.sim");
    report.Add("refine.candidates_per_query",
               n > 0 ? refine_candidates / n : 0.0, "count");
    for (const char* name :
         {"ivf.lists_probed_per_query", "ivf.codes_scanned_per_query"}) {
      report.Add(name, get(extra, name), "count.exact");
    }
    report.Add("ivf.insert_p50_ms", insert_p50, "ms");
    report.Add("ivf.insert_p99_ms", insert_p99, "ms");
    report.Add("ivf.mixed_p50_ms", mixed_p50, "ms");
    report.Add("ivf.mixed_p99_ms", mixed_p99, "ms");
    report.Add("graph.adjacency_bytes_per_vector",
               wl->AdjacencyBytesPerVector(), "B.exact");
    report.Add("quant.code_bytes_per_vector", wl->CodeBytesPerVector(),
               "B.exact");
    report.Add("obs.trace_overhead_pct",
               windowed.p50_ms > 0
                   ? (traced_p50 - windowed.p50_ms) / windowed.p50_ms * 100
                   : 0.0,
               "%");
  }
  report.Print();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace rpqbench

int main(int argc, char** argv) {
  rpqbench::Args args;
  if (!rpqbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rpqbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return rpqbench::Run(args);
}
