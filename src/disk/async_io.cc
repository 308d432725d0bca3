#include "disk/async_io.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rpq::disk {

AsyncIoContext::AsyncIoContext(const SsdSimulator& ssd, size_t queue_depth)
    : ssd_(ssd), queue_depth_(std::max<size_t>(1, queue_depth)) {}

void AsyncIoContext::SubmitRead(uint32_t block, uint64_t user_data) {
  sq_.push_back(Sqe{block, user_data});
}

size_t AsyncIoContext::PollCompletions(std::vector<IoCompletion>* out,
                                       IoStats* stats) {
  out->clear();
  if (sq_.empty()) return 0;
  const size_t depth = sq_.size();
  out->reserve(depth);

  // Reads execute in submission order so the device's seeded fault injector
  // sees the same roll sequence a synchronous caller would produce.
  double total = 0.0;
  double worst = 0.0;
  for (const Sqe& sqe : sq_) {
    IoStats one;
    Result<const uint8_t*> read = ssd_.ReadBlock(sqe.block, &one);
    stats->reads += one.reads;
    stats->bytes += one.bytes;
    stats->io_errors += one.io_errors;
    stats->latency_spikes += one.latency_spikes;
    total += one.simulated_seconds;
    worst = std::max(worst, one.simulated_seconds);
    out->push_back(IoCompletion{sqe.block, sqe.user_data,
                                read.ok() ? read.value() : nullptr,
                                read.status()});
  }
  sq_.clear();

  // Overlap model: up to queue_depth_ reads proceed concurrently, so the
  // wave occupies the slower of (a) its longest single read and (b) the
  // serial time divided by the effective parallelism. A wave of one read
  // charges exactly its serial cost; queue_depth=1 degenerates to the sum.
  const double wave =
      std::max(worst, total / static_cast<double>(queue_depth_));
  stats->simulated_seconds += wave;
  ++stats->io_waves;

  if (obs::MetricsEnabled()) {
    static const obs::HistogramId qd = obs::GetHistogram("disk.queue_depth");
    obs::Record(qd, depth);
  }
  return depth;
}

const uint8_t* PrefetchCache::Take(uint32_t block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return nullptr;
  const uint8_t* data = it->second;
  blocks_.erase(it);
  auto pos = std::find(order_.begin(), order_.end(), block);
  if (pos != order_.end()) order_.erase(pos);
  return data;
}

void PrefetchCache::Insert(uint32_t block, const uint8_t* data) {
  // A cached block's bytes never change, so a repeat insert has nothing to
  // refresh.
  if (capacity_ == 0 || Contains(block)) return;
  while (blocks_.size() >= capacity_ && !order_.empty()) {
    blocks_.erase(order_.front());
    order_.pop_front();
  }
  blocks_.emplace(block, data);
  order_.push_back(block);
}

}  // namespace rpq::disk
