// Per-query stage tracing: a QueryTrace rides a query through the serving
// stack (QuerySpec.trace -> backend search options) and accumulates how long
// each pipeline stage spent on it — route, scan, beam expansion, LUT build,
// refine, merge, queue wait, service. The same spans also feed the process-
// wide stage histograms in the metrics registry (stage.<name>_ns), so
// serve-bench gets p50/p95/p99 per stage while a single traced query gets a
// human-readable breakdown.
//
// Cost model: a span is two TickNow() reads (rdtscp) and a couple of adds —
// recorded ONLY when the query carries a trace or MetricsEnabled() is on;
// otherwise ScopedStage compiles down to a null check and a relaxed bool
// load. Stages are per-query-granular (one span per stage per query), never
// per-code, so the hot kernels are untouched.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/timer.h"
#include "obs/metrics.h"

namespace rpq::obs {

/// The pipeline stages spans are attributed to. Keep StageName() in sync.
enum class Stage : uint8_t {
  kRoute = 0,   ///< coarse routing: IVF centroid scan / graph entry descent
  kScan,        ///< flat list scans (IVF cells)
  kBeam,        ///< graph beam expansion (memory / disk traversal)
  kLutBuild,    ///< ADC / FastScan lookup-table construction
  kRefine,      ///< refinement stage re-scoring (src/refine/)
  kMerge,       ///< top-k selection / shard merge
  kQueueWait,   ///< taken-in to start, or to refusal when shed (engine /
                ///< batcher queues)
  kService,     ///< whole backend Search call (service boundary)
  kIo,          ///< simulated device time (hybrid disk)
  kNumStages
};

inline constexpr size_t kNumStages = static_cast<size_t>(Stage::kNumStages);

/// Stable lowercase stage name ("route", "scan", ...).
const char* StageName(Stage stage);

/// The registry histogram recording `stage` durations ("stage.<name>_ns").
HistogramId StageHistogram(Stage stage);

/// Pre-registers every stage histogram so metric snapshots carry the full
/// stable key set even for stages a given backend never hits.
void RegisterStageMetrics();

/// Per-query span accumulator. One instance per traced query; not shared
/// across threads (batched backends may accumulate a whole batch's spans
/// into the one trace the batch carries — documented at those call sites).
class QueryTrace {
 public:
  struct StageTotal {
    uint64_t nanos = 0;
    uint32_t spans = 0;
  };

  void AddSpan(Stage stage, uint64_t nanos) {
    StageTotal& t = totals_[static_cast<size_t>(stage)];
    t.nanos += nanos;
    ++t.spans;
  }

  const StageTotal& total(Stage stage) const {
    return totals_[static_cast<size_t>(stage)];
  }

  /// Wall-clock sum over the pipeline stages. Excluded: queue wait and the
  /// enclosing service span, which overlap the others rather than adding to
  /// them, and io, which is simulated device time, not wall time.
  uint64_t PipelineNanos() const;

  void Clear() { totals_ = {}; }

  /// One-line human-readable dump of the non-empty stages:
  /// "route 12.4us | scan 80.1us | refine 3.2us".
  std::string Format() const;

 private:
  std::array<StageTotal, kNumStages> totals_{};
};

/// RAII span: times a scope and attributes it to `stage` — into `trace` when
/// the query carries one, and into the process-wide stage histogram when
/// metrics are enabled. Inactive (no clock reads) when neither applies.
class ScopedStage {
 public:
  ScopedStage(Stage stage, QueryTrace* trace)
      : stage_(stage),
        trace_(trace),
        to_registry_(MetricsEnabled()),
        start_(trace != nullptr || to_registry_ ? TickNow() : 0) {}

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  ~ScopedStage() {
    if (trace_ == nullptr && !to_registry_) return;
    const uint64_t nanos = TicksToNanos(TickNow() - start_);
    if (trace_ != nullptr) trace_->AddSpan(stage_, nanos);
    if (to_registry_) Record(StageHistogram(stage_), nanos);
  }

 private:
  Stage stage_;
  QueryTrace* trace_;
  bool to_registry_;
  uint64_t start_;
};

/// Records an already-measured span (for non-scope-shaped measurements such
/// as queue waits and simulated I/O time).
inline void RecordSpan(Stage stage, uint64_t nanos, QueryTrace* trace) {
  if (trace != nullptr) trace->AddSpan(stage, nanos);
  if (MetricsEnabled()) Record(StageHistogram(stage), nanos);
}

}  // namespace rpq::obs
