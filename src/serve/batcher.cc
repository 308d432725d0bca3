#include "serve/batcher.h"

#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace rpq::serve {
namespace {

struct BatcherMetrics {
  obs::CounterId batches = obs::GetCounter("serve.batches");
  obs::HistogramId occupancy = obs::GetHistogram("serve.batch_occupancy");
};

const BatcherMetrics& Metrics() {
  static const BatcherMetrics m;
  return m;
}

}  // namespace

MicroBatcher::MicroBatcher(const ServingEngine& engine,
                           const BatcherOptions& options)
    : engine_(engine), opt_(options) {
  Metrics();  // register the serve.batch* keys before any traffic
  timer_ = std::thread([this] { TimerLoop(); });
}

MicroBatcher::~MicroBatcher() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!pending_.empty()) DispatchLocked(lk);
    stop_ = true;
  }
  cv_.notify_all();
  timer_.join();
}

std::future<QueryResult> MicroBatcher::Submit(const QuerySpec& q) {
  const uint64_t taken = TickNow();
  std::unique_lock<std::mutex> lk(mu_);
  if (pending_.empty()) batch_open_since_ = std::chrono::steady_clock::now();
  pending_.push_back({q, std::promise<QueryResult>(), taken});
  ++submitted_;
  std::future<QueryResult> fut = pending_.back().promise.get_future();
  if (pending_.size() >= opt_.max_batch) {
    DispatchLocked(lk);
  } else if (pending_.size() == 1) {
    cv_.notify_one();  // arm the timer for this batch
  }
  return fut;
}

void MicroBatcher::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  if (!pending_.empty()) DispatchLocked(lk);
}

size_t MicroBatcher::batches_dispatched() const {
  std::unique_lock<std::mutex> lk(mu_);
  return batches_;
}

size_t MicroBatcher::queries_submitted() const {
  std::unique_lock<std::mutex> lk(mu_);
  return submitted_;
}

void MicroBatcher::DispatchLocked(std::unique_lock<std::mutex>&) {
  ++batches_;
  if (obs::MetricsEnabled()) {
    obs::Add(Metrics().batches, 1);
    obs::Record(Metrics().occupancy, pending_.size());
  }
  engine_.Dispatch(std::exchange(pending_, {}));
}

void MicroBatcher::TimerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || !pending_.empty(); });
    if (stop_) return;
    // A batch is open: sleep until its deadline, then dispatch whatever
    // accumulated (Submit may already have dispatched on max_batch).
    auto deadline = batch_open_since_ + opt_.max_wait;
    cv_.wait_until(lk, deadline, [this, deadline] {
      return stop_ ||
             (pending_.empty()) ||  // dispatched by Submit/Flush meanwhile
             std::chrono::steady_clock::now() >= deadline;
    });
    if (stop_) return;
    if (!pending_.empty() &&
        std::chrono::steady_clock::now() >= batch_open_since_ + opt_.max_wait) {
      DispatchLocked(lk);
    }
  }
}

}  // namespace rpq::serve
