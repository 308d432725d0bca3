#include "obs/flight_recorder.h"

#include <cstdio>

namespace rpq::obs {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

void FlightRecorder::Configure(const FlightRecorderOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  if (options_.capacity == 0) options_.capacity = 1;
  ring_.clear();
  ring_.reserve(options_.capacity);
  next_seq_ = 0;
  observed_.store(0, std::memory_order_relaxed);
  sample_clock_.store(0, std::memory_order_relaxed);
  slow_us_.store(options_.slow_us, std::memory_order_relaxed);
  sample_every_.store(options_.sample_every, std::memory_order_relaxed);
  since_.Reset();
}

void FlightRecorder::Observe(const QueryObservation& obs) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  observed_.fetch_add(1, std::memory_order_relaxed);

  // Admission policy, unlocked: the common (healthy, fast) query decides
  // "not noteworthy" from two relaxed loads and a compare, and leaves.
  const char* reason = nullptr;
  const uint64_t slow_us = slow_us_.load(std::memory_order_relaxed);
  const bool is_degraded = obs.degraded || obs.deadline_exceeded || obs.shed ||
                           obs.hedged || obs.shards_lost > 0;
  if (is_degraded) {
    reason = "degraded";
  } else if (slow_us > 0 && obs.latency_us >= slow_us) {
    reason = "slow";
  } else {
    const uint32_t every = sample_every_.load(std::memory_order_relaxed);
    if (every > 0 &&
        sample_clock_.fetch_add(1, std::memory_order_relaxed) % every == 0) {
      reason = "sample";
    }
  }
  if (reason == nullptr) return;

  FlightRecord rec;
  rec.t_seconds = since_.ElapsedSeconds();
  rec.latency_us = obs.latency_us;
  rec.k = obs.k;
  rec.width = obs.width;
  rec.degraded = obs.degraded;
  rec.deadline_exceeded = obs.deadline_exceeded;
  rec.shed = obs.shed;
  rec.hedged = obs.hedged;
  rec.shards_lost = obs.shards_lost;
  rec.reason = reason;
  if (obs.trace != nullptr) {
    for (size_t s = 0; s < kNumStages; ++s) {
      rec.stage_nanos[s] = obs.trace->total(static_cast<Stage>(s)).nanos;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  rec.seq = next_seq_++;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[rec.seq % options_.capacity] = std::move(rec);
  }
}

std::vector<FlightRecord> FlightRecorder::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;  // not yet wrapped: ring_ is already oldest-first
  } else {
    const size_t start = next_seq_ % options_.capacity;
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(start + i) % options_.capacity]);
    }
  }
  return out;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

FlightRecorderOptions FlightRecorder::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

std::string FlightRecorder::DumpJson() const {
  // Snapshot the ring and counters first; all formatting happens unlocked.
  const std::vector<FlightRecord> records = Dump();
  const uint64_t observed = observed_.load(std::memory_order_relaxed);
  uint64_t recorded_total;
  size_t capacity;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recorded_total = next_seq_;
    capacity = options_.capacity;
  }

  std::string out;
  out.reserve(256 + records.size() * 192);
  out += "{\"version\":1,\"observed\":";
  AppendU64(&out, observed);
  out += ",\"recorded\":";
  AppendU64(&out, recorded_total);
  out += ",\"capacity\":";
  AppendU64(&out, capacity);
  out += ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const FlightRecord& r = records[i];
    if (i > 0) out += ',';
    out += "{\"seq\":";
    AppendU64(&out, r.seq);
    out += ",\"t_seconds\":";
    AppendDouble(&out, r.t_seconds);
    out += ",\"latency_us\":";
    AppendU64(&out, r.latency_us);
    out += ",\"k\":";
    AppendU64(&out, r.k);
    out += ",\"width\":";
    AppendU64(&out, r.width);
    out += ",\"reason\":\"";
    out += r.reason;
    out += "\",\"degraded\":";
    out += r.degraded ? "true" : "false";
    out += ",\"deadline_exceeded\":";
    out += r.deadline_exceeded ? "true" : "false";
    out += ",\"shed\":";
    out += r.shed ? "true" : "false";
    out += ",\"hedged\":";
    out += r.hedged ? "true" : "false";
    out += ",\"shards_lost\":";
    AppendU64(&out, r.shards_lost);
    out += ",\"stages\":{";
    bool first_stage = true;
    for (size_t s = 0; s < kNumStages; ++s) {
      if (r.stage_nanos[s] == 0) continue;
      if (!first_stage) out += ',';
      first_stage = false;
      out += '"';
      out += StageName(static_cast<Stage>(s));
      out += "_ns\":";
      AppendU64(&out, r.stage_nanos[s]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

FlightRecorder& GlobalFlightRecorder() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

}  // namespace rpq::obs
