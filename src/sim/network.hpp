// The node container: creates nodes and devices and wires packet
// delivery between them. Topology-agnostic — the core library's
// LeoNetwork builder (src/core) instantiates it from a constellation.
#pragma once

#include <memory>
#include <vector>

#include "src/sim/node.hpp"
#include "src/sim/simulator.hpp"

namespace hypatia::sim {

class Network {
  public:
    explicit Network(Simulator& sim) : sim_(sim) {}
    // Nodes and devices hold pointers into the network.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Creates `count` nodes with ids 0..count-1 (call once).
    void create_nodes(int count);

    Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
    const Node& node(int id) const { return *nodes_.at(static_cast<std::size_t>(id)); }
    int num_nodes() const { return static_cast<int>(nodes_.size()); }
    Simulator& simulator() { return sim_; }

    /// Adds the two unidirectional devices of one ISL (a<->b).
    /// `link_up` (optional) is the fault probe both devices consult; see
    /// sim::LinkUpFn.
    void add_isl(int a, int b, double rate_bps, std::size_t queue_capacity,
                 DelayModel delay, LinkUpFn link_up = nullptr);

    /// Adds the single GSL device of node `n`.
    void add_gsl(int n, double rate_bps, std::size_t queue_capacity, DelayModel delay,
                 LinkUpFn link_up = nullptr);

    /// All devices, for utilization accounting.
    const std::vector<std::unique_ptr<NetDevice>>& devices() const { return devices_; }

    /// Aggregate drop counters across all nodes/devices.
    std::uint64_t total_queue_drops() const;
    std::uint64_t total_no_route_drops() const;

  private:
    NetDevice& make_device(int owner, double rate_bps, std::size_t queue_capacity,
                           DelayModel delay, int fixed_peer, LinkUpFn link_up);

    Simulator& sim_;
    ForwardingTable fib_;  // every node's next hops (Node::set_next_hop)
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<NetDevice>> devices_;
};

}  // namespace hypatia::sim
