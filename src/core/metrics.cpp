#include "src/core/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace hypatia::core {

UtilizationSampler::UtilizationSampler(LeoNetwork& leo, TimeNs bin_width, TimeNs horizon)
    : leo_(leo), bin_width_(bin_width),
      num_bins_(static_cast<std::size_t>(horizon / bin_width) + 1) {
    const auto& devices = leo_.network().devices();
    bytes_per_bin_.assign(devices.size(), std::vector<std::uint64_t>(num_bins_, 0));
    last_counter_.assign(devices.size(), 0);
    leo_.simulator().schedule_at(bin_width_, [this] { tick(); });
}

void UtilizationSampler::tick() {
    sample();
    if (current_bin_ < num_bins_) {
        leo_.simulator().schedule_in(bin_width_, [this] { tick(); });
    }
}

void UtilizationSampler::sample() {
    const auto& devices = leo_.network().devices();
    if (current_bin_ >= num_bins_) return;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        const std::uint64_t counter = devices[d]->tx_bytes();
        bytes_per_bin_[d][current_bin_] = counter - last_counter_[d];
        last_counter_[d] = counter;
    }
    ++current_bin_;
}

double UtilizationSampler::utilization(std::size_t dev, std::size_t bin) const {
    const double sent_bits = static_cast<double>(bytes_per_bin_[dev][bin]) * 8.0;
    const double capacity_bits =
        leo_.network().devices()[dev]->rate_bps() * ns_to_seconds(bin_width_);
    return std::min(1.0, sent_bits / capacity_bits);
}

std::size_t UtilizationSampler::device_index(const sim::NetDevice* dev) const {
    const auto& devices = leo_.network().devices();
    for (std::size_t d = 0; d < devices.size(); ++d) {
        if (devices[d].get() == dev) return d;
    }
    throw std::out_of_range("utilization sampler: unknown device");
}

UnusedBandwidthTracker::UnusedBandwidthTracker(LeoNetwork& leo,
                                               UtilizationSampler& sampler, int src_gs,
                                               int dst_gs)
    : leo_(leo), sampler_(sampler), src_gs_(src_gs), dst_gs_(dst_gs) {
    path_devices_per_bin_.resize(sampler.num_bins());
    // Capture just after each bin starts (fstate for t=0 installs at t=0,
    // so a 1 ns offset sees the fresh state).
    leo_.simulator().schedule_at(1, [this] { tick(); });
}

void UnusedBandwidthTracker::tick() {
    const auto bin = static_cast<std::size_t>(leo_.simulator().now() / sampler_.bin_width());
    if (bin < path_devices_per_bin_.size()) {
        for (sim::NetDevice* dev : leo_.current_path_devices(src_gs_, dst_gs_)) {
            path_devices_per_bin_[bin].push_back(sampler_.device_index(dev));
        }
    }
    if (bin + 1 < path_devices_per_bin_.size()) {
        leo_.simulator().schedule_in(sampler_.bin_width(), [this] { tick(); });
    }
}

std::vector<double> UnusedBandwidthTracker::unused_bps() const {
    std::vector<double> out;
    out.reserve(path_devices_per_bin_.size());
    for (std::size_t bin = 0; bin < path_devices_per_bin_.size(); ++bin) {
        const auto& devices = path_devices_per_bin_[bin];
        if (devices.empty()) {
            out.push_back(-1.0);  // unreachable during this bin
            continue;
        }
        double max_used_bps = 0.0;
        double capacity_bps = 0.0;
        for (const std::size_t d : devices) {
            const double used =
                static_cast<double>(sampler_.bytes(d, bin)) * 8.0 /
                ns_to_seconds(sampler_.bin_width());
            if (used >= max_used_bps) {
                max_used_bps = used;
                capacity_bps = leo_.network().devices()[d]->rate_bps();
            }
        }
        out.push_back(std::max(0.0, capacity_bps - max_used_bps));
    }
    return out;
}

}  // namespace hypatia::core
