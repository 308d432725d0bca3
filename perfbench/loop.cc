#include "loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace rpqbench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Phase control shared by the clients and the thread that runs the phase.
struct PhaseControl {
  Clock::time_point start;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> next_pool{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t finished = 0;  // guarded by mu
};

// One client's private tallies; merged after the phase.
struct ClientTally {
  std::vector<double> search_ms;
  std::vector<double> search_done_s;
  std::vector<double> insert_ms;
  std::vector<std::pair<size_t, uint32_t>> inserts;  // (pool row, id)
  size_t failed = 0;
  double search_us = 0;
  uint64_t stage_ns[rpq::obs::kNumStages] = {};
};

void RunClient(const LoopTarget& t, const LoopOptions& o, size_t client,
               PhaseControl* ctl, ClientTally* tally) {
  // Room for a fast client's samples, so the vectors never regrow mid-phase.
  const size_t expected = static_cast<size_t>(o.seconds * 40000) + 1024;
  tally->search_ms.reserve(expected);
  tally->search_done_s.reserve(expected);
  // Clients start spread over the query set so they never walk in lockstep.
  size_t query = client * t.num_queries / kClients;
  size_t op = 0;
  while (!ctl->go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!ctl->stop.load(std::memory_order_relaxed)) {
    ++op;
    if (o.insert_every > 0 && op % o.insert_every == 0) {
      const size_t row = ctl->next_pool.fetch_add(1, std::memory_order_relaxed);
      if (row >= o.pool_size) break;
      const auto t0 = Clock::now();
      const uint32_t id = t.insert(row);
      const auto t1 = Clock::now();
      tally->insert_ms.push_back(MillisBetween(t0, t1));
      tally->inserts.emplace_back(row, id);
      continue;
    }
    rpq::serve::QuerySpec spec = t.spec(query);
    rpq::obs::QueryTrace trace;
    if (o.traced) spec.trace = &trace;
    const auto t0 = Clock::now();
    const rpq::serve::QueryResult r = t.service->Search(spec);
    const auto t1 = Clock::now();
    const double ms = MillisBetween(t0, t1);
    tally->search_ms.push_back(ms);
    tally->search_done_s.push_back(MillisBetween(ctl->start, t1) / 1e3);
    if (!t.check(query, r)) ++tally->failed;
    if (o.traced) {
      tally->search_us += ms * 1e3;
      for (size_t s = 0; s < rpq::obs::kNumStages; ++s) {
        const auto stage = static_cast<rpq::obs::Stage>(s);
        tally->stage_ns[s] += trace.total(stage).nanos;
      }
    }
    query = (query + 1) % t.num_queries;
  }
  std::lock_guard<std::mutex> lock(ctl->mu);
  ++ctl->finished;
  ctl->cv.notify_one();
}

}  // namespace

LoopResult RunLoop(const LoopTarget& t, const LoopOptions& o) {
  std::vector<ClientTally> tallies(kClients);
  PhaseControl ctl;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, std::cref(t), std::cref(o), c, &ctl,
                         &tallies[c]);
  }
  ctl.start = Clock::now();
  ctl.go.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(ctl.mu);
    ctl.cv.wait_for(lock, std::chrono::duration<double>(o.seconds),
                    [&] { return ctl.finished == kClients; });
  }
  ctl.stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  const auto end = Clock::now();

  LoopResult out;
  out.seconds = MillisBetween(ctl.start, end) / 1e3;
  out.inserted_ids.assign(std::min(ctl.next_pool.load(), o.pool_size), 0);
  for (const ClientTally& c : tallies) {
    out.search_ms.insert(out.search_ms.end(), c.search_ms.begin(),
                         c.search_ms.end());
    out.search_done_s.insert(out.search_done_s.end(), c.search_done_s.begin(),
                             c.search_done_s.end());
    out.insert_ms.insert(out.insert_ms.end(), c.insert_ms.begin(),
                         c.insert_ms.end());
    for (const auto& [row, id] : c.inserts) out.inserted_ids[row] = id;
    out.failed_searches += c.failed;
    out.search_us_total += c.search_us;
    for (size_t s = 0; s < rpq::obs::kNumStages; ++s) {
      out.stage_ns[s] += c.stage_ns[s];
    }
  }
  return out;
}

WindowedStats Windowed(const std::vector<LoopResult>& phases, double window_s) {
  std::vector<double> qps, p50, p95, p99;
  for (const LoopResult& phase : phases) {
    std::vector<std::vector<double>> per_window(
        static_cast<size_t>(phase.seconds / window_s));
    for (size_t i = 0; i < phase.search_ms.size(); ++i) {
      const size_t w = static_cast<size_t>(phase.search_done_s[i] / window_s);
      if (w < per_window.size()) per_window[w].push_back(phase.search_ms[i]);
    }
    for (const auto& ms : per_window) {
      qps.push_back(ms.size() / window_s);
      p50.push_back(Quantile(ms, 0.5));
      p95.push_back(Quantile(ms, 0.95));
      p99.push_back(Quantile(ms, 0.99));
    }
  }
  WindowedStats out;
  out.windows = qps.size();
  if (out.windows == 0) return out;
  out.qps = Median(qps);
  out.p50_ms = Median(p50);
  out.p95_ms = Median(p95);
  out.p99_ms = Median(p99);
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  const size_t idx = std::min(values.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace rpqbench
