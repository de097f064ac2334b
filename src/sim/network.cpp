#include "src/sim/network.hpp"

#include <stdexcept>

namespace hypatia::sim {

void Network::create_nodes(int count) {
    if (!nodes_.empty()) throw std::logic_error("network: nodes already created");
    fib_.reset(count);
    nodes_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) nodes_.push_back(std::make_unique<Node>(i, fib_));
}

NetDevice& Network::make_device(int owner, double rate_bps, std::size_t queue_capacity,
                                DelayModel delay, int fixed_peer, LinkUpFn link_up) {
    devices_.push_back(std::make_unique<NetDevice>(
        sim_, owner, rate_bps, queue_capacity, std::move(delay),
        [this](const Packet& p, int to) { node(to).receive(p); }, fixed_peer,
        std::move(link_up)));
    return *devices_.back();
}

void Network::add_isl(int a, int b, double rate_bps, std::size_t queue_capacity,
                      DelayModel delay, LinkUpFn link_up) {
    NetDevice& ab = make_device(a, rate_bps, queue_capacity, delay, b, link_up);
    NetDevice& ba =
        make_device(b, rate_bps, queue_capacity, std::move(delay), a, std::move(link_up));
    node(a).attach_isl_device(b, &ab);
    node(b).attach_isl_device(a, &ba);
}

void Network::add_gsl(int n, double rate_bps, std::size_t queue_capacity,
                      DelayModel delay, LinkUpFn link_up) {
    NetDevice& dev =
        make_device(n, rate_bps, queue_capacity, std::move(delay), -1, std::move(link_up));
    node(n).attach_gsl_device(&dev);
}

std::uint64_t Network::total_queue_drops() const {
    std::uint64_t total = 0;
    for (const auto& dev : devices_) total += dev->queue().drops();
    return total;
}

std::uint64_t Network::total_no_route_drops() const {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) total += n->no_route_drops();
    return total;
}

}  // namespace hypatia::sim
