// Deterministic, seeded fault-injection harness.
//
// Named injection points sit on the failure seams of the serving stack —
// disk read errors, I/O latency spikes, shard stalls, allocation pressure —
// and fire according to a per-point rate. Decisions are a pure function of
// (seed, point, per-point call index): the i-th roll of a point always fires
// or not identically for a given plan, regardless of wall time or thread
// interleaving, so tests pin retry/hedge/partial-merge behavior exactly and
// a failed CI run reproduces locally from the same plan string.
//
// Two layers:
//  * `Injector` — an instance owned by a component (the SSD simulator seeds
//    one from its own knobs) for fully local determinism.
//  * the process-wide injector — configured from the RPQ_FAULTS environment
//    variable ("disk_read_error=0.01,shard_stall=0.05,seed=7") or
//    SetGlobalPlan(); components without their own knobs (shard fan-out,
//    engine admission) roll against it. Off (all rates zero) it costs one
//    relaxed atomic bool load per check.
//
// Every fired injection bumps an obs counter ("fault.<point>") so a load
// test can report how many faults it actually injected, not just asked for.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace rpq::fault {

/// The named injection points. Keep PointName() in sync.
enum class Point : uint8_t {
  kDiskReadError = 0,  ///< transient block-read failure (disk/ssd_simulator)
  kDiskLatencySpike,   ///< tail-latency spike on one read (disk/ssd_simulator)
  kShardStall,         ///< one shard of a fan-out stalls (serve/sharded)
  kAllocFailure,       ///< allocation pressure: engine refuses the query
  kNumPoints
};

inline constexpr size_t kNumPoints = static_cast<size_t>(Point::kNumPoints);

/// Stable lowercase point name ("disk_read_error", ...).
const char* PointName(Point p);

/// Per-point fire rates in [0, 1] plus the decision seed.
struct Plan {
  std::array<double, kNumPoints> rates{};  // all zero = no injection
  uint64_t seed = 1;

  bool any() const {
    for (double r : rates) {
      if (r > 0) return true;
    }
    return false;
  }
  double rate(Point p) const { return rates[static_cast<size_t>(p)]; }
  void set_rate(Point p, double r) { rates[static_cast<size_t>(p)] = r; }
};

/// Parses "point=rate[,point=rate...][,seed=N]" (the RPQ_FAULTS syntax).
/// Returns false and fills `error` on unknown points, malformed rates or
/// rates outside [0, 1] (NaN included), and on a seed that is not a decimal
/// integer in [0, 2^64).
bool ParsePlan(const std::string& spec, Plan* plan, std::string* error);

/// Deterministic decision engine over one Plan. Thread-safe: the per-point
/// call index is a relaxed atomic counter, and the fire decision hashes
/// (seed, point, index) — so the SET of fired indices is plan-deterministic
/// even when rolls race (which arrival gets which index is scheduling).
/// The plan itself is stored as relaxed atomics so Reset may race in-flight
/// rolls safely (a roll concurrent with a swap may mix old and new fields;
/// determinism is guaranteed for any quiescently installed plan).
class Injector {
 public:
  Injector() = default;
  explicit Injector(const Plan& plan) { Reset(plan); }

  /// Installs a new plan and rewinds every per-point call index.
  void Reset(const Plan& plan);

  /// Rolls injection point `p`: true when this call should fail. Records
  /// the "fault.<point>" counter on fire. Zero-rate points never fire and
  /// never touch the counter (the common case costs one double compare).
  bool Fire(Point p);

  /// Rolls without consuming obs metrics (for unit tests of determinism).
  bool FireQuiet(Point p);

  /// Snapshot of the installed plan.
  Plan plan() const;
  /// Rolls issued so far for `p` (instrumentation for tests).
  uint64_t calls(Point p) const {
    return counters_[static_cast<size_t>(p)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<double>, kNumPoints> rates_{};
  std::atomic<uint64_t> seed_{1};
  std::array<std::atomic<uint64_t>, kNumPoints> counters_{};
};

/// The process-wide injector, seeded once from RPQ_FAULTS (absent/empty =
/// no injection). SetGlobalPlan replaces the plan and rewinds the indices.
Injector& GlobalInjector();
void SetGlobalPlan(const Plan& plan);

/// True when the global plan has any nonzero rate — the one-load fast gate
/// call sites check before rolling.
bool GlobalFaultsEnabled();

/// Pre-registers every "fault.<point>" counter so metric snapshots carry
/// the stable key set even before any fault fires.
void RegisterFaultMetrics();

/// RAII plan override for tests: installs `plan` on construction, restores
/// the previous global plan (and rewinds indices) on destruction.
class ScopedPlan {
 public:
  explicit ScopedPlan(const Plan& plan);
  ~ScopedPlan();
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

 private:
  Plan previous_;
};

}  // namespace rpq::fault
