#include "disk/ssd_simulator.h"

#include <algorithm>

namespace rpq::disk {
namespace {

// The device rolls against the stricter of its own knobs and the global
// RPQ_FAULTS plan, so an operator can inject errors into an already-built
// stack without re-plumbing options.
fault::Plan EffectivePlan(const SsdOptions& opt) {
  fault::Plan plan;
  plan.seed = opt.fault_seed;
  plan.set_rate(fault::Point::kDiskReadError, opt.transient_error_rate);
  plan.set_rate(fault::Point::kDiskLatencySpike, opt.latency_spike_rate);
  if (fault::GlobalFaultsEnabled()) {
    const fault::Plan global = fault::GlobalInjector().plan();
    for (auto p : {fault::Point::kDiskReadError, fault::Point::kDiskLatencySpike}) {
      plan.set_rate(p, std::max(plan.rate(p), global.rate(p)));
    }
  }
  return plan;
}

}  // namespace

SsdSimulator::SsdSimulator(size_t num_blocks, size_t block_bytes,
                           const SsdOptions& options)
    : num_blocks_(num_blocks), opt_(options), injector_(EffectivePlan(options)) {
  RPQ_CHECK_GT(options.sector_bytes, 0u);
  sectors_per_block_ =
      (block_bytes + options.sector_bytes - 1) / options.sector_bytes;
  if (sectors_per_block_ == 0) sectors_per_block_ = 1;
  block_bytes_ = sectors_per_block_ * options.sector_bytes;
  arena_.assign(num_blocks_ * block_bytes_, 0);
}

void SsdSimulator::WriteBlock(size_t block_id, const void* data, size_t size) {
  RPQ_CHECK_LT(block_id, num_blocks_);
  RPQ_CHECK_LE(size, block_bytes_);
  std::memcpy(arena_.data() + block_id * block_bytes_, data, size);
}

Result<const uint8_t*> SsdSimulator::ReadBlock(size_t block_id,
                                               IoStats* stats) const {
  if (block_id >= num_blocks_) {
    return Status::InvalidArgument("ReadBlock out of range");
  }
  double cost = opt_.read_latency_seconds +
                static_cast<double>(block_bytes_) / opt_.bandwidth_bytes_per_s;
  if (injector_.plan().any()) {
    if (injector_.Fire(fault::Point::kDiskLatencySpike)) {
      cost *= opt_.latency_spike_multiplier;
      if (stats != nullptr) ++stats->latency_spikes;
    }
    if (injector_.Fire(fault::Point::kDiskReadError)) {
      // The device was still occupied for the failed attempt.
      if (stats != nullptr) {
        ++stats->io_errors;
        stats->simulated_seconds += cost;
      }
      return Status::IOError("transient read error on block " +
                             std::to_string(block_id));
    }
  }
  if (stats != nullptr) {
    ++stats->reads;
    stats->bytes += block_bytes_;
    stats->simulated_seconds += cost;
  }
  return arena_.data() + block_id * block_bytes_;
}

}  // namespace rpq::disk
