#include "eval/harness.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "eval/recall.h"

namespace rpq::eval {

std::vector<OperatingPoint> SweepBeamWidths(
    const serve::SearchService& service, const serve::QuerySpec& spec,
    const Dataset& queries, const std::vector<std::vector<Neighbor>>& gt,
    const std::vector<size_t>& beams) {
  const size_t n = queries.size();
  std::vector<OperatingPoint> curve;
  curve.reserve(beams.size());
  std::vector<serve::QueryResult> out(n);
  for (size_t beam : beams) {
    serve::QuerySpec q = spec;
    q.beam_width = beam;
    Timer timer;
    for (size_t i = 0; i < n; ++i) {
      q.query = queries[i];
      out[i] = service.Search(q);
    }
    const double wall = timer.ElapsedSeconds();

    double io_seconds = 0;
    size_t hops = 0;
    std::vector<std::vector<Neighbor>> results(n);
    for (size_t i = 0; i < n; ++i) {
      io_seconds += out[i].simulated_io_seconds;
      hops += out[i].stats.hops;
      results[i] = std::move(out[i].results);
    }
    OperatingPoint pt;
    pt.beam = beam;
    pt.recall = MeanRecallAtK(results, gt, spec.k);
    pt.wall_qps = wall > 0 ? static_cast<double>(n) / wall : 0.0;
    pt.mean_hops = static_cast<double>(hops) / n;
    pt.mean_io_ms = io_seconds * 1e3 / n;
    curve.push_back(pt);
  }
  return curve;
}

double AtRecall(const std::vector<OperatingPoint>& curve, double target_recall,
                double OperatingPoint::*field, bool* reached) {
  if (reached != nullptr) *reached = false;
  if (curve.empty()) return 0.0;
  // Sort a copy by recall so interpolation is well defined.
  std::vector<OperatingPoint> pts = curve;
  std::sort(pts.begin(), pts.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.recall < b.recall;
            });
  if (pts.back().recall < target_recall) return pts.back().*field;
  if (reached != nullptr) *reached = true;
  if (pts.front().recall >= target_recall) return pts.front().*field;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].recall >= target_recall) {
      const double r0 = pts[i - 1].recall, r1 = pts[i].recall;
      const double v0 = pts[i - 1].*field, v1 = pts[i].*field;
      if (r1 - r0 < 1e-12) return v1;
      const double w = (target_recall - r0) / (r1 - r0);
      return v0 + w * (v1 - v0);
    }
  }
  return pts.back().*field;
}

Status WriteCurveCsv(const std::string& path, const std::string& knob,
                     const std::vector<OperatingPoint>& curve) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path + " for writing");
  std::fprintf(f, "%s,recall@10,us_per_query\n", knob.c_str());
  for (const auto& pt : curve) {
    const double us = pt.wall_qps > 0 ? 1e6 / pt.wall_qps : 0.0;
    std::fprintf(f, "%zu,%.4f,%.2f\n", pt.beam, pt.recall, us);
  }
  if (std::fclose(f) != 0) return Status::IOError(path + ": close failed");
  return Status::OK();
}

void PrintCurve(const std::string& method,
                const std::vector<OperatingPoint>& curve) {
  for (const auto& pt : curve) {
    std::printf("%-18s beam=%-5zu recall@10=%.4f  wall QPS=%10.1f  "
                "hops=%8.1f  sim io=%7.3f ms/q\n",
                method.c_str(), pt.beam, pt.recall, pt.wall_qps, pt.mean_hops,
                pt.mean_io_ms);
  }
}

}  // namespace rpq::eval
