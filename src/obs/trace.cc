#include "obs/trace.h"

#include <cstdio>

#include "common/logging.h"

namespace rpq::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kRoute: return "route";
    case Stage::kScan: return "scan";
    case Stage::kBeam: return "beam";
    case Stage::kLutBuild: return "lut_build";
    case Stage::kRefine: return "refine";
    case Stage::kMerge: return "merge";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kService: return "service";
    case Stage::kIo: return "io";
    case Stage::kNumStages: break;
  }
  RPQ_CHECK(false && "invalid stage");
  return "?";
}

HistogramId StageHistogram(Stage stage) {
  // One registry lookup per stage per process; afterwards the ids come from
  // this function-local table with no lock.
  static const std::array<HistogramId, kNumStages> ids = [] {
    std::array<HistogramId, kNumStages> out{};
    for (size_t s = 0; s < kNumStages; ++s) {
      out[s] = GetHistogram(std::string("stage.") +
                            StageName(static_cast<Stage>(s)) + "_ns");
    }
    return out;
  }();
  return ids[static_cast<size_t>(stage)];
}

void RegisterStageMetrics() { StageHistogram(Stage::kRoute); }

uint64_t QueryTrace::PipelineNanos() const {
  uint64_t ns = 0;
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    if (stage == Stage::kQueueWait || stage == Stage::kService ||
        stage == Stage::kIo) {
      continue;
    }
    ns += totals_[s].nanos;
  }
  return ns;
}

std::string QueryTrace::Format() const {
  std::string out;
  for (size_t s = 0; s < kNumStages; ++s) {
    const StageTotal& t = totals_[s];
    if (t.spans == 0) continue;
    if (!out.empty()) out += " | ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.1fus", StageName(static_cast<Stage>(s)),
                  static_cast<double>(t.nanos) / 1e3);
    out += buf;
  }
  if (out.empty()) out = "(no spans)";
  return out;
}

}  // namespace rpq::obs
