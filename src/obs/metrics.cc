#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace rpq::obs {
namespace {

// One thread's private slice of every metric. Slots are atomics so a
// concurrent Snapshot() reads torn-free values, but only the owning thread
// ever writes — plain load+store (no RMW, no lock prefix) is enough, and no
// other thread's cacheline is touched on the hot path.
struct ThreadShard {
  std::array<std::atomic<uint64_t>, kMaxCounters> counters{};
  // A histogram's buckets, sum and max change together, so a reader needs
  // them from one moment: `seq` is a sequence counter the owner makes odd
  // before it writes and even after (HistWrite), and ReadHist re-reads
  // until it sees the same even value on both sides of its copy.
  struct HistShard {
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<HistShard, kMaxHistograms> histograms{};
  ThreadShard* next = nullptr;  // intrusive live list, guarded by Registry mu
};

inline void ShardAdd(std::atomic<uint64_t>& slot, uint64_t delta,
                     std::memory_order order = std::memory_order_relaxed) {
  slot.store(slot.load(std::memory_order_relaxed) + delta, order);
}

// Seqlock write side, run by the owning thread only. `write` stores the
// histogram's slots with release order, so a reader whose acquire load sees
// one of them also sees the odd `seq` stored before it.
template <typename Fn>
inline void HistWrite(ThreadShard::HistShard& h, Fn&& write) {
  const uint64_t seq = h.seq.load(std::memory_order_relaxed);
  h.seq.store(seq + 1, std::memory_order_relaxed);
  write();
  h.seq.store(seq + 2, std::memory_order_release);
}

inline void HistMax(ThreadShard::HistShard& h, uint64_t value) {
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_release);
  }
}

// Seqlock read side: one shard's histogram as of a single moment between
// its owner's writes.
HistogramData ReadHist(const ThreadShard::HistShard& h) {
  HistogramData out;
  for (;;) {
    const uint64_t seq = h.seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {
      out = HistogramData();
      for (uint32_t b = 0; b < kNumBuckets; ++b) {
        out.buckets[b] = h.buckets[b].load(std::memory_order_acquire);
        out.count += out.buckets[b];
      }
      out.sum = h.sum.load(std::memory_order_acquire);
      out.max = h.max.load(std::memory_order_acquire);
      if (h.seq.load(std::memory_order_relaxed) == seq) return out;
    }
    std::this_thread::yield();  // the owner is mid-write
  }
}

class Registry {
 public:
  static Registry& Instance() {
    // Leaked singleton: thread-exit hooks may fold shards in after static
    // destruction would have run.
    static Registry* r = new Registry();
    return *r;
  }

  uint32_t Register(const std::string& name, bool histogram) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& names = histogram ? histogram_names_ : counter_names_;
    for (uint32_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    const size_t cap = histogram ? kMaxHistograms : kMaxCounters;
    RPQ_CHECK(names.size() < cap && "metric registry capacity exhausted");
    names.push_back(name);
    return static_cast<uint32_t>(names.size() - 1);
  }

  void Attach(ThreadShard* shard) {
    std::lock_guard<std::mutex> lk(mu_);
    shard->next = live_;
    live_ = shard;
  }

  // Thread exit: fold the shard's totals into the retired accumulators so
  // counts survive the thread, then unlink and free the shard.
  void Retire(ThreadShard* shard) {
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < kMaxCounters; ++i) {
      retired_counters_[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (size_t h = 0; h < kMaxHistograms; ++h) {
      retired_histograms_[h].Merge(ReadHist(shard->histograms[h]));
    }
    ThreadShard** p = &live_;
    while (*p != nullptr && *p != shard) p = &(*p)->next;
    if (*p == shard) *p = shard->next;
    delete shard;
  }

  Snapshot Take() {
    std::lock_guard<std::mutex> lk(mu_);
    Snapshot snap;
    snap.counters.resize(counter_names_.size());
    for (size_t i = 0; i < counter_names_.size(); ++i) {
      snap.counters[i].name = counter_names_[i];
      snap.counters[i].value = retired_counters_[i];
    }
    snap.histograms.resize(histogram_names_.size());
    for (size_t h = 0; h < histogram_names_.size(); ++h) {
      snap.histograms[h].name = histogram_names_[h];
      snap.histograms[h].data = retired_histograms_[h];
    }
    for (ThreadShard* s = live_; s != nullptr; s = s->next) {
      for (size_t i = 0; i < counter_names_.size(); ++i) {
        snap.counters[i].value +=
            s->counters[i].load(std::memory_order_relaxed);
      }
      for (size_t h = 0; h < histogram_names_.size(); ++h) {
        snap.histograms[h].data.Merge(ReadHist(s->histograms[h]));
      }
    }
    return snap;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  ThreadShard* live_ = nullptr;
  std::array<uint64_t, kMaxCounters> retired_counters_{};
  std::array<HistogramData, kMaxHistograms> retired_histograms_{};
};

// TLS shard ownership: created on a thread's first record, retired (folded
// into the registry) by the TLS destructor when the thread exits.
struct ShardOwner {
  ThreadShard* shard = nullptr;
  ~ShardOwner() {
    if (shard != nullptr) Registry::Instance().Retire(shard);
  }
};

ThreadShard* LocalShard() {
  thread_local ShardOwner owner;
  if (owner.shard == nullptr) {
    owner.shard = new ThreadShard();
    Registry::Instance().Attach(owner.shard);
  }
  return owner.shard;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled = [] {
    const char* env = std::getenv("RPQ_METRICS");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }();
  return enabled;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

void HistogramData::Merge(const HistogramData& other) {
  for (uint32_t b = 0; b < kNumBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

double HistogramData::Percentile(double p) const {
  if (count == 0) return 0.0;
  // Same rank rule as serve::SummarizeLatencies' sorted-vector percentile.
  const uint64_t rank = static_cast<uint64_t>(
      p * static_cast<double>(count - 1) + 0.5);
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      const double mid = static_cast<double>(BucketLowerBound(b)) +
                         static_cast<double>(BucketWidth(b)) / 2.0;
      return std::min(mid, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

bool MetricsEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

CounterId GetCounter(const std::string& name) {
  return Registry::Instance().Register(name, /*histogram=*/false);
}

HistogramId GetHistogram(const std::string& name) {
  return Registry::Instance().Register(name, /*histogram=*/true);
}

void Add(CounterId id, uint64_t delta) {
  if (!MetricsEnabled()) return;
  ShardAdd(LocalShard()->counters[id], delta);
}

void Record(HistogramId id, uint64_t value) {
  if (!MetricsEnabled()) return;
  auto& h = LocalShard()->histograms[id];
  HistWrite(h, [&] {
    ShardAdd(h.buckets[BucketIndexFor(value)], 1, std::memory_order_release);
    ShardAdd(h.sum, value, std::memory_order_release);
    HistMax(h, value);
  });
}

const CounterSnapshot* Snapshot::FindCounter(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramSnapshot* Snapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Snapshot TakeSnapshot() { return Registry::Instance().Take(); }

std::string DumpJson(const Snapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"version\": 1,\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i == 0 ? "\n    \"" : ",\n    \"";
    AppendJsonEscaped(&out, snapshot.counters[i].name);
    out += "\": " + std::to_string(snapshot.counters[i].value);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    out += i == 0 ? "\n    \"" : ",\n    \"";
    AppendJsonEscaped(&out, h.name);
    out += "\": {\"count\": " + std::to_string(h.data.count);
    out += ", \"sum\": " + std::to_string(h.data.sum);
    out += ", \"max\": " + std::to_string(h.data.max);
    out += ", \"mean\": ";
    AppendDouble(&out, h.data.Mean());
    out += ", \"p50\": ";
    AppendDouble(&out, h.data.Percentile(0.50));
    out += ", \"p95\": ";
    AppendDouble(&out, h.data.Percentile(0.95));
    out += ", \"p99\": ";
    AppendDouble(&out, h.data.Percentile(0.99));
    out += ", \"buckets\": [";
    bool first = true;
    for (uint32_t b = 0; b < kNumBuckets; ++b) {
      if (h.data.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "[" + std::to_string(BucketLowerBound(b)) + ", " +
             std::to_string(BucketWidth(b)) + ", " +
             std::to_string(h.data.buckets[b]) + "]";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string DumpJson() { return DumpJson(TakeSnapshot()); }

}  // namespace rpq::obs
