// Shared experiment harness for the per-figure/table benchmark binaries:
// beam-width sweeps of a serve::SearchService producing (recall, wall QPS,
// hops, simulated I/O) operating points, and interpolation of any of those
// at a target recall (how the paper reports "QPS at the same Recall@10 of
// 95%").
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/topk.h"
#include "data/dataset.h"
#include "serve/search_service.h"

namespace rpq::eval {

/// One point of a trade-off curve. Each cost is its own field, on its own
/// clock: no field adds simulated device time to wall time.
struct OperatingPoint {
  size_t beam = 0;
  double recall = 0.0;
  double wall_qps = 0.0;    ///< queries per wall-clock second, serial replay
  double mean_hops = 0.0;
  double mean_io_ms = 0.0;  ///< simulated disk time per query (ms), disk only
};

/// Replays `queries` serially through `service`, one Search per query, once
/// per beam width: every query copies `spec` (k, rerank width and stage,
/// deadline) with its beam_width set to the swept value — nprobe for IVF
/// services. Recall@spec.k is measured against `gt`.
std::vector<OperatingPoint> SweepBeamWidths(
    const serve::SearchService& service, const serve::QuerySpec& spec,
    const Dataset& queries, const std::vector<std::vector<Neighbor>>& gt,
    const std::vector<size_t>& beams);

/// Linear interpolation of `field` (e.g. &OperatingPoint::wall_qps or
/// &OperatingPoint::mean_hops) at `target_recall` along the curve. When the
/// curve never reaches the target, returns the field at the highest-recall
/// point and sets *reached = false (if provided).
double AtRecall(const std::vector<OperatingPoint>& curve, double target_recall,
                double OperatingPoint::*field, bool* reached = nullptr);

/// Prints a curve as aligned columns (method name as the row prefix).
void PrintCurve(const std::string& method, const std::vector<OperatingPoint>& curve);

/// Writes a curve as machine-readable CSV: one header line
/// `<knob>,recall@10,us_per_query` then one row per operating point, where
/// the knob column carries OperatingPoint.beam under the caller's name
/// ("nprobe" for IVF sweeps) and us_per_query = 1e6 / wall_qps. The format
/// feeds the checked-in BENCH_ivf.json comparisons and external plotting
/// without scraping the aligned-column output.
Status WriteCurveCsv(const std::string& path, const std::string& knob,
                     const std::vector<OperatingPoint>& curve);

}  // namespace rpq::eval
