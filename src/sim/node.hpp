// A network node (satellite or ground station): owns its devices, a view
// of the destination -> next-hop forwarding table (installed/refreshed by
// the routing schedule, paper section 3.1 "forwarding state"), and the
// flow handlers of locally terminating traffic.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/net_device.hpp"
#include "src/sim/packet.hpp"

namespace hypatia::sim {

/// Every node's next hop toward every installed destination, in one flat
/// array owned by the Network: row = destination slot (assigned when a
/// destination is first given a route), column = node. A destination
/// that never got a route has no row and reads -1 everywhere, as does
/// any id that is not a node.
class ForwardingTable {
  public:
    void reset(int num_nodes);
    void set(int node, int dst, int next_hop);
    int get(int node, int dst) const {
        if (dst < 0 || static_cast<std::size_t>(dst) >= row_of_dst_.size()) return -1;
        const int row = row_of_dst_[static_cast<std::size_t>(dst)];
        if (row < 0) return -1;
        return next_hop_[static_cast<std::size_t>(row) * num_nodes_ +
                         static_cast<std::size_t>(node)];
    }

  private:
    std::size_t num_nodes_ = 0;
    std::vector<int> row_of_dst_;  // -1 = no row yet
    std::vector<int> next_hop_;    // row * num_nodes_ + node
};

class Node {
  public:
    /// Nodes are created by Network, which owns the shared table.
    Node(int id, ForwardingTable& fib) : id_(id), fib_(&fib) {}

    int id() const { return id_; }

    /// Max point-to-point devices per node (the +Grid pattern's degree).
    static constexpr int kMaxIslDevices = 4;

    /// Registers the point-to-point device toward satellite `peer`
    /// (replacing an earlier one to the same peer). Throws
    /// std::logic_error beyond kMaxIslDevices distinct peers.
    void attach_isl_device(int peer, NetDevice* device);
    /// Registers this node's (single) GSL device.
    void attach_gsl_device(NetDevice* device) { gsl_device_ = device; }

    NetDevice* gsl_device() const { return gsl_device_; }
    NetDevice* isl_device_to(int peer) const {
        for (const IslPort& port : isl_) {
            if (port.peer == peer) return port.device;
        }
        return nullptr;
    }

    /// Replaces the next hop toward destination `dst` (-1 = unreachable).
    /// Throws std::out_of_range when `dst` is not a node of the network.
    void set_next_hop(int dst, int next_hop) { fib_->set(id_, dst, next_hop); }
    int next_hop(int dst) const { return fib_->get(id_, dst); }

    /// Handler for traffic terminating here, keyed by flow id.
    using FlowHandler = std::function<void(const Packet&)>;
    void set_flow_handler(std::uint64_t flow_id, FlowHandler handler) {
        handlers_[flow_id] = std::move(handler);
    }

    /// Entry point for packets arriving from a device (or injected by a
    /// local application with hops == 0).
    void receive(const Packet& packet);

    std::uint64_t no_route_drops() const { return no_route_drops_; }
    std::uint64_t ttl_drops() const { return ttl_drops_; }
    std::uint64_t queue_drops() const;
    std::uint64_t delivered_packets() const { return delivered_; }

  private:
    void forward(const Packet& packet);

    struct IslPort {
        int peer = -1;
        NetDevice* device = nullptr;  // nullptr = unused port
    };

    int id_;
    ForwardingTable* fib_;
    std::array<IslPort, kMaxIslDevices> isl_{};
    NetDevice* gsl_device_ = nullptr;
    std::unordered_map<std::uint64_t, FlowHandler> handlers_;
    std::uint64_t no_route_drops_ = 0;
    std::uint64_t ttl_drops_ = 0;
    std::uint64_t delivered_ = 0;
};

}  // namespace hypatia::sim
