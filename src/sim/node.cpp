#include "src/sim/node.hpp"

#include <stdexcept>

#include "src/obs/observability.hpp"

namespace hypatia::sim {

namespace {
// Nodes carry no simulator reference, so the shared drop counters are
// resolved lazily here instead of per instance.
obs::Counter& ttl_drops_metric() {
    static obs::Counter& c = obs::metrics().counter("net.ttl_drops");
    return c;
}
obs::Counter& no_route_drops_metric() {
    static obs::Counter& c = obs::metrics().counter("net.no_route_drops");
    return c;
}
}  // namespace

void ForwardingTable::reset(int num_nodes) {
    num_nodes_ = static_cast<std::size_t>(num_nodes);
    row_of_dst_.assign(num_nodes_, -1);
    next_hop_.clear();
}

void ForwardingTable::set(int node, int dst, int next_hop) {
    if (dst < 0 || static_cast<std::size_t>(dst) >= row_of_dst_.size()) {
        throw std::out_of_range("forwarding table: destination is not a node");
    }
    int& row = row_of_dst_[static_cast<std::size_t>(dst)];
    if (row < 0) {
        if (next_hop < 0) return;  // a destination without a row reads -1 already
        row = static_cast<int>(next_hop_.size() / num_nodes_);
        next_hop_.resize(next_hop_.size() + num_nodes_, -1);
    }
    next_hop_[static_cast<std::size_t>(row) * num_nodes_ + static_cast<std::size_t>(node)] =
        next_hop;
}

void Node::attach_isl_device(int peer, NetDevice* device) {
    for (IslPort& port : isl_) {
        if (port.device == nullptr || port.peer == peer) {
            port = {peer, device};
            return;
        }
    }
    throw std::logic_error("node: more than four ISL devices");
}

void Node::receive(const Packet& packet) {
    if (packet.dst_node == id_) {
        ++delivered_;
        const auto it = handlers_.find(packet.flow_id);
        if (it != handlers_.end()) it->second(packet);
        return;
    }
    forward(packet);
}

void Node::forward(const Packet& in) {
    Packet packet = in;
    if (++packet.hops > kMaxHops) {
        ++ttl_drops_;
        ttl_drops_metric().inc();
        return;
    }
    const int nh = next_hop(packet.dst_node);
    if (nh < 0) {
        ++no_route_drops_;
        no_route_drops_metric().inc();
        return;
    }
    if (NetDevice* isl = isl_device_to(nh)) {
        isl->send(packet, nh);
        return;
    }
    if (gsl_device_ != nullptr) {
        gsl_device_->send(packet, nh);
        return;
    }
    ++no_route_drops_;  // no device capable of reaching the next hop
    no_route_drops_metric().inc();
}

std::uint64_t Node::queue_drops() const {
    std::uint64_t total = 0;
    for (const IslPort& port : isl_) {
        if (port.device != nullptr) total += port.device->queue().drops();
    }
    if (gsl_device_ != nullptr) total += gsl_device_->queue().drops();
    return total;
}

}  // namespace hypatia::sim
