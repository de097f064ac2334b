// Metric collectors for the constellation-wide experiments:
//  * UtilizationSampler — per-device transmitted bytes per time bin, the
//    input for the paper's Figs 10 (unused bandwidth), 14 and 15 (link
//    utilization maps).
//  * UnusedBandwidthTracker — the paper's Fig 10 metric: a GS pair's path
//    capacity minus the utilization of its most loaded on-path link.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/leo_network.hpp"

namespace hypatia::core {

/// Snapshots every device's tx_bytes counter at a fixed interval.
class UtilizationSampler {
  public:
    UtilizationSampler(LeoNetwork& leo, TimeNs bin_width, TimeNs horizon);

    TimeNs bin_width() const { return bin_width_; }
    std::size_t num_bins() const { return num_bins_; }
    std::size_t num_devices() const { return bytes_per_bin_.size(); }

    /// Bytes transmitted by device `dev` during bin `bin`.
    std::uint64_t bytes(std::size_t dev, std::size_t bin) const {
        return bytes_per_bin_[dev][bin];
    }
    /// Utilization of `dev` during `bin` in [0, 1].
    double utilization(std::size_t dev, std::size_t bin) const;

    /// Index of a device within the sampler (== index in network().devices()).
    std::size_t device_index(const sim::NetDevice* dev) const;

  private:
    void sample();
    /// Samples the bin that just ended and schedules the next sample.
    void tick();

    LeoNetwork& leo_;
    TimeNs bin_width_;
    std::size_t num_bins_;
    std::size_t current_bin_ = 0;
    std::vector<std::vector<std::uint64_t>> bytes_per_bin_;  // [device][bin]
    std::vector<std::uint64_t> last_counter_;
};

/// Tracks, per bin, the unused bandwidth of one GS pair's end-end path:
/// link capacity minus the busiest on-path device's throughput (paper
/// Fig 10). The path is looked up at every bin boundary from the live
/// forwarding state; an unreachable bin is marked with -1.
class UnusedBandwidthTracker {
  public:
    UnusedBandwidthTracker(LeoNetwork& leo, UtilizationSampler& sampler, int src_gs,
                           int dst_gs);

    /// Call after the simulation: unused bandwidth (bit/s) per bin;
    /// -1 marks bins where the pair was unreachable.
    std::vector<double> unused_bps() const;

  private:
    /// Records the current path's devices for the bin that just started
    /// and schedules the next capture.
    void tick();

    LeoNetwork& leo_;
    UtilizationSampler& sampler_;
    int src_gs_;
    int dst_gs_;
    // Device indices of the path during each bin (captured at bin start).
    std::vector<std::vector<std::size_t>> path_devices_per_bin_;
};

}  // namespace hypatia::core
