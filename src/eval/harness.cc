#include "eval/harness.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "eval/recall.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/search_service.h"

namespace rpq::eval {

std::vector<OperatingPoint> SweepBeamWidths(
    const SearchFn& search, const Dataset& queries,
    const std::vector<std::vector<Neighbor>>& gt, size_t k,
    const std::vector<size_t>& beams, const SweepOptions& options) {
  const size_t threads = std::max<size_t>(1, options.threads);
  // The replay runs through the serving engine: with one worker the loop is
  // inline (timing identical to a plain serial loop), with more it is a
  // concurrent replay and the wall clock below measures the parallel run.
  serve::FunctionService service([&search](const serve::QuerySpec& q) {
    SearchOutcome out = search(q.query, q.k, q.beam_width);
    serve::QueryResult r;
    r.results = std::move(out.results);
    r.stats.hops = out.hops;
    r.simulated_io_seconds = out.simulated_io_seconds;
    return r;
  });
  serve::ServingEngine engine(service, {threads});

  std::vector<OperatingPoint> curve;
  curve.reserve(beams.size());
  for (size_t beam : beams) {
    OperatingPoint pt;
    pt.beam = beam;
    Timer timer;
    auto outcomes = engine.SearchAll(queries, {nullptr, k, beam});
    double wall = timer.ElapsedSeconds();
    if (obs::MetricsEnabled()) {
      // Sweep accounting in the registry, alongside the backend's own
      // counters for the same replay.
      static const obs::CounterId replayed =
          obs::GetCounter("eval.replayed_queries");
      static const obs::HistogramId point =
          obs::GetHistogram("eval.sweep_point_ns");
      obs::Add(replayed, queries.size());
      obs::Record(point, static_cast<uint64_t>(wall * 1e9));
    }

    double total_io = 0;
    size_t total_hops = 0;
    std::vector<std::vector<Neighbor>> results(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      total_io += outcomes[q].simulated_io_seconds;
      total_hops += outcomes[q].stats.hops;
      results[q] = std::move(outcomes[q].results);
    }
    pt.recall = MeanRecallAtK(results, gt, k);
    // Simulated device time is charged as if the device served the workers
    // in parallel (serial replay: unchanged semantics).
    double total = wall + total_io / threads;
    pt.qps = total > 0 ? static_cast<double>(queries.size()) / total : 0.0;
    pt.mean_hops = static_cast<double>(total_hops) / queries.size();
    pt.mean_io_ms = total_io * 1e3 / queries.size();
    curve.push_back(pt);
  }
  return curve;
}

double QpsAtRecall(const std::vector<OperatingPoint>& curve, double target_recall,
                   bool* reached) {
  if (reached != nullptr) *reached = false;
  if (curve.empty()) return 0.0;
  // Sort a copy by recall so interpolation is well defined.
  std::vector<OperatingPoint> pts = curve;
  std::sort(pts.begin(), pts.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.recall < b.recall;
            });
  if (pts.back().recall < target_recall) return pts.back().qps;
  if (reached != nullptr) *reached = true;
  if (pts.front().recall >= target_recall) return pts.front().qps;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].recall >= target_recall) {
      double r0 = pts[i - 1].recall, r1 = pts[i].recall;
      double q0 = pts[i - 1].qps, q1 = pts[i].qps;
      if (r1 - r0 < 1e-12) return q1;
      double w = (target_recall - r0) / (r1 - r0);
      return q0 + w * (q1 - q0);
    }
  }
  return pts.back().qps;
}

double HopsAtRecall(const std::vector<OperatingPoint>& curve,
                    double target_recall) {
  if (curve.empty()) return 0.0;
  std::vector<OperatingPoint> pts = curve;
  std::sort(pts.begin(), pts.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.recall < b.recall;
            });
  if (pts.back().recall < target_recall) return pts.back().mean_hops;
  if (pts.front().recall >= target_recall) return pts.front().mean_hops;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].recall >= target_recall) {
      double r0 = pts[i - 1].recall, r1 = pts[i].recall;
      double h0 = pts[i - 1].mean_hops, h1 = pts[i].mean_hops;
      if (r1 - r0 < 1e-12) return h1;
      double w = (target_recall - r0) / (r1 - r0);
      return h0 + w * (h1 - h0);
    }
  }
  return pts.back().mean_hops;
}

Status WriteCurveCsv(const std::string& path, const std::string& knob,
                     const std::vector<OperatingPoint>& curve) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path + " for writing");
  std::fprintf(f, "%s,recall@10,us_per_query\n", knob.c_str());
  for (const auto& pt : curve) {
    const double us = pt.qps > 0 ? 1e6 / pt.qps : 0.0;
    std::fprintf(f, "%zu,%.4f,%.2f\n", pt.beam, pt.recall, us);
  }
  if (std::fclose(f) != 0) return Status::IOError(path + ": close failed");
  return Status::OK();
}

void PrintCurve(const std::string& method,
                const std::vector<OperatingPoint>& curve) {
  for (const auto& pt : curve) {
    std::printf("%-18s beam=%-5zu recall@10=%.4f  QPS=%10.1f  hops=%8.1f  "
                "io=%7.3f ms\n",
                method.c_str(), pt.beam, pt.recall, pt.qps, pt.mean_hops,
                pt.mean_io_ms);
  }
}

}  // namespace rpq::eval
