#include "common/fault.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace rpq::fault {
namespace {

// splitmix64: cheap, well-mixed, and stateless — the decision for roll i of
// point p under seed s is hash(s ^ (p+1) * golden ^ i), so determinism needs
// no per-roll lock, only the per-point index counter.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool Decide(uint64_t seed, Point p, uint64_t index, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const uint64_t h =
      Mix64(seed ^ (static_cast<uint64_t>(p) + 1) * 0x9e3779b97f4a7c15ull ^
            Mix64(index));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

obs::CounterId PointCounter(Point p) {
  static const std::array<obs::CounterId, kNumPoints> ids = [] {
    std::array<obs::CounterId, kNumPoints> out{};
    for (size_t i = 0; i < kNumPoints; ++i) {
      out[i] = obs::GetCounter(std::string("fault.") +
                               PointName(static_cast<Point>(i)));
    }
    return out;
  }();
  return ids[static_cast<size_t>(p)];
}

// The global gate is kept separate from the injector so call sites pay one
// relaxed bool load when injection is off (the overwhelmingly common case).
std::atomic<bool> g_global_enabled{false};

Plan PlanFromEnv() {
  Plan plan;
  const char* env = std::getenv("RPQ_FAULTS");
  if (env == nullptr || env[0] == '\0') return plan;
  std::string error;
  if (!ParsePlan(env, &plan, &error)) {
    std::fprintf(stderr, "RPQ_FAULTS ignored: %s\n", error.c_str());
    return Plan{};
  }
  return plan;
}

}  // namespace

const char* PointName(Point p) {
  switch (p) {
    case Point::kDiskReadError: return "disk_read_error";
    case Point::kDiskLatencySpike: return "disk_latency_spike";
    case Point::kShardStall: return "shard_stall";
    case Point::kAllocFailure: return "alloc_failure";
    case Point::kNumPoints: break;
  }
  return "unknown";
}

bool ParsePlan(const std::string& spec, Plan* plan, std::string* error) {
  Plan out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) *error = "expected name=value, got \"" + item + "\"";
      return false;
    }
    const std::string name = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (name == "seed") {
      // A decimal integer in [0, 2^64), every digit kept: no sign, no
      // fraction, no rounding through a double.
      const char* end = value.data() + value.size();
      const auto parsed = std::from_chars(value.data(), end, out.seed);
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        if (error != nullptr) *error = "bad seed in \"" + item + "\"";
        return false;
      }
      continue;
    }
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0') {
      if (error != nullptr) *error = "bad value in \"" + item + "\"";
      return false;
    }
    bool matched = false;
    for (size_t i = 0; i < kNumPoints; ++i) {
      if (name == PointName(static_cast<Point>(i))) {
        if (!(v >= 0.0 && v <= 1.0)) {  // also rejects NaN
          if (error != nullptr) *error = "rate out of [0,1] in \"" + item + "\"";
          return false;
        }
        out.rates[i] = v;
        matched = true;
        break;
      }
    }
    if (!matched) {
      if (error != nullptr) *error = "unknown injection point \"" + name + "\"";
      return false;
    }
  }
  *plan = out;
  return true;
}

void Injector::Reset(const Plan& plan) {
  // Relaxed atomic stores: Reset may race rolls from tasks abandoned by a
  // timed-out query (they outlive the query that spawned them). A racing
  // roll may see a mix of old and new fields — benign; determinism is
  // guaranteed for any plan installed while the injector is quiescent.
  for (size_t i = 0; i < kNumPoints; ++i) {
    rates_[i].store(plan.rates[i], std::memory_order_relaxed);
  }
  seed_.store(plan.seed, std::memory_order_relaxed);
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
}

Plan Injector::plan() const {
  Plan out;
  for (size_t i = 0; i < kNumPoints; ++i) {
    out.rates[i] = rates_[i].load(std::memory_order_relaxed);
  }
  out.seed = seed_.load(std::memory_order_relaxed);
  return out;
}

bool Injector::FireQuiet(Point p) {
  const double rate = rates_[static_cast<size_t>(p)].load(
      std::memory_order_relaxed);
  if (rate <= 0.0) return false;
  const uint64_t index = counters_[static_cast<size_t>(p)].fetch_add(
      1, std::memory_order_relaxed);
  return Decide(seed_.load(std::memory_order_relaxed), p, index, rate);
}

bool Injector::Fire(Point p) {
  if (!FireQuiet(p)) return false;
  if (obs::MetricsEnabled()) obs::Add(PointCounter(p), 1);
  return true;
}

Injector& GlobalInjector() {
  static Injector* injector = [] {
    auto* inj = new Injector(PlanFromEnv());
    g_global_enabled.store(inj->plan().any(), std::memory_order_relaxed);
    return inj;
  }();
  return *injector;
}

void SetGlobalPlan(const Plan& plan) {
  GlobalInjector().Reset(plan);
  g_global_enabled.store(plan.any(), std::memory_order_relaxed);
}

bool GlobalFaultsEnabled() {
  // Force env parsing on first use so RPQ_FAULTS works without any explicit
  // initialization call.
  static const bool init = (GlobalInjector(), true);
  (void)init;
  return g_global_enabled.load(std::memory_order_relaxed);
}

void RegisterFaultMetrics() {
  for (size_t i = 0; i < kNumPoints; ++i) {
    PointCounter(static_cast<Point>(i));
  }
}

ScopedPlan::ScopedPlan(const Plan& plan)
    : previous_(GlobalInjector().plan()) {
  SetGlobalPlan(plan);
}

ScopedPlan::~ScopedPlan() { SetGlobalPlan(previous_); }

}  // namespace rpq::fault
