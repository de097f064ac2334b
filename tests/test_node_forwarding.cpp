#include <gtest/gtest.h>

#include "src/sim/network.hpp"

namespace hypatia::sim {
namespace {

// Chain: gs0 --GSL-- sat1 --ISL-- sat2 --GSL-- gs3.
struct Chain {
    Simulator sim;
    Network net{sim};

    Chain() {
        net.create_nodes(4);
        auto delay = [](int, int, TimeNs) { return TimeNs{1 * kNsPerMs}; };
        net.add_gsl(0, 1e7, 100, delay);
        net.add_gsl(1, 1e7, 100, delay);
        net.add_gsl(2, 1e7, 100, delay);
        net.add_gsl(3, 1e7, 100, delay);
        net.add_isl(1, 2, 1e7, 100, delay);
        // Static forwarding 0 -> 3 and back.
        net.node(0).set_next_hop(3, 1);
        net.node(1).set_next_hop(3, 2);
        net.node(2).set_next_hop(3, 3);
        net.node(3).set_next_hop(0, 2);
        net.node(2).set_next_hop(0, 1);
        net.node(1).set_next_hop(0, 0);
    }
};

TEST(NodeForwarding, PacketTraversesChain) {
    Chain c;
    int got = 0;
    c.net.node(3).set_flow_handler(9, [&](const Packet&) { ++got; });
    Packet p;
    p.src_node = 0;
    p.dst_node = 3;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).receive(p);
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(got, 1);
}

TEST(NodeForwarding, HopCountIncrements) {
    Chain c;
    int hops = -1;
    c.net.node(3).set_flow_handler(9, [&](const Packet& p) { hops = p.hops; });
    Packet p;
    p.src_node = 0;
    p.dst_node = 3;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).receive(p);
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(hops, 3);  // forwarded at 0, 1, 2
}

TEST(NodeForwarding, NoRouteDrops) {
    Chain c;
    Packet p;
    p.src_node = 0;
    p.dst_node = 3;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).set_next_hop(3, -1);  // unreachable (disconnection)
    c.net.node(0).receive(p);
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(c.net.node(0).no_route_drops(), 1u);
    EXPECT_EQ(c.net.node(3).delivered_packets(), 0u);
}

TEST(NodeForwarding, ReroutingMidFlightTakesNewPath) {
    // Swap sat1's next hop while a packet sits in its queue: the routing
    // decision was already made at enqueue time (like ns-3), so the queued
    // packet still crosses the old path, and the next packet uses the new.
    Chain c;
    // Also create an alternate ISL 1 -> 3 shortcut for rerouting.
    c.net.add_isl(1, 3, 1e7, 100, [](int, int, TimeNs) { return TimeNs{1 * kNsPerMs}; });
    std::vector<int> hop_counts;
    c.net.node(3).set_flow_handler(9, [&](const Packet& p) {
        hop_counts.push_back(p.hops);
    });
    Packet p;
    p.src_node = 0;
    p.dst_node = 3;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).receive(p);
    c.sim.schedule_at(10 * kNsPerMs, [&c]() { c.net.node(1).set_next_hop(3, 3); });
    c.sim.schedule_at(20 * kNsPerMs, [&c, p]() mutable { c.net.node(0).receive(p); });
    c.sim.run_until(kNsPerSec);
    ASSERT_EQ(hop_counts.size(), 2u);
    EXPECT_EQ(hop_counts[0], 3);  // old path via sat2
    EXPECT_EQ(hop_counts[1], 2);  // shortcut via ISL 1->3
}

TEST(NodeForwarding, TtlGuardDropsLoops) {
    Chain c;
    // Create a two-node forwarding loop between sat1 and sat2.
    c.net.node(1).set_next_hop(3, 2);
    c.net.node(2).set_next_hop(3, 1);
    Packet p;
    p.src_node = 0;
    p.dst_node = 3;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).receive(p);
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(c.net.node(3).delivered_packets(), 0u);
    EXPECT_EQ(c.net.node(1).ttl_drops() + c.net.node(2).ttl_drops(), 1u);
}

TEST(NodeForwarding, NeverInstalledDestinationHasNoRoute) {
    Chain c;
    // Destination 2 never got a route from anyone; 99 is not even a node.
    for (int n = 0; n < 4; ++n) {
        EXPECT_EQ(c.net.node(n).next_hop(2), -1);
        EXPECT_EQ(c.net.node(n).next_hop(99), -1);
        EXPECT_EQ(c.net.node(n).next_hop(-1), -1);
    }
    EXPECT_THROW(c.net.node(0).set_next_hop(99, 1), std::out_of_range);
    Packet p;
    p.src_node = 0;
    p.dst_node = 2;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).receive(p);
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(c.net.node(0).no_route_drops(), 1u);
    EXPECT_EQ(c.net.node(2).delivered_packets(), 0u);
}

TEST(NodeForwarding, OverwritingAnEntryTouchesOnlyThatEntry) {
    Chain c;
    c.net.node(1).set_next_hop(3, 0);
    EXPECT_EQ(c.net.node(1).next_hop(3), 0);
    c.net.node(1).set_next_hop(3, 2);
    EXPECT_EQ(c.net.node(1).next_hop(3), 2);
    // Same destination at other nodes, and other destinations, unchanged.
    EXPECT_EQ(c.net.node(0).next_hop(3), 1);
    EXPECT_EQ(c.net.node(2).next_hop(3), 3);
    EXPECT_EQ(c.net.node(1).next_hop(0), 0);
    EXPECT_EQ(c.net.node(2).next_hop(0), 1);
}

TEST(NodeForwarding, SettingNoRouteClearsOneEntry) {
    Chain c;
    c.net.node(2).set_next_hop(3, -1);
    EXPECT_EQ(c.net.node(2).next_hop(3), -1);
    EXPECT_EQ(c.net.node(1).next_hop(3), 2);
    // -1 for a destination without a table row keeps it without one.
    c.net.node(2).set_next_hop(1, -1);
    EXPECT_EQ(c.net.node(2).next_hop(1), -1);
    EXPECT_EQ(c.net.node(0).next_hop(1), -1);
    // The packet now dies at sat2, one hop short.
    Packet p;
    p.src_node = 0;
    p.dst_node = 3;
    p.size_bytes = 100;
    p.flow_id = 9;
    c.net.node(0).receive(p);
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(c.net.node(2).no_route_drops(), 1u);
    EXPECT_EQ(c.net.node(3).delivered_packets(), 0u);
}

TEST(NodeForwarding, AtMostFourIslDevicesPerNode) {
    Simulator sim;
    Network net{sim};
    net.create_nodes(6);
    auto delay = [](int, int, TimeNs) { return TimeNs{1 * kNsPerMs}; };
    for (int peer = 1; peer <= 4; ++peer) net.add_isl(0, peer, 1e7, 100, delay);
    for (int peer = 1; peer <= 4; ++peer) {
        ASSERT_NE(net.node(0).isl_device_to(peer), nullptr);
        EXPECT_EQ(net.node(0).isl_device_to(peer)->fixed_peer(), peer);
    }
    EXPECT_EQ(net.node(0).isl_device_to(5), nullptr);
    EXPECT_THROW(net.add_isl(0, 5, 1e7, 100, delay), std::logic_error);
}

TEST(NodeForwarding, LocalDeliveryDoesNotForward) {
    Chain c;
    int got = 0;
    c.net.node(0).set_flow_handler(5, [&](const Packet&) { ++got; });
    Packet p;
    p.src_node = 3;
    p.dst_node = 0;
    p.size_bytes = 100;
    p.flow_id = 5;
    c.net.node(0).receive(p);  // arrives at its own destination
    c.sim.run_until(kNsPerSec);
    EXPECT_EQ(got, 1);
    EXPECT_EQ(c.net.node(0).delivered_packets(), 1u);
}

}  // namespace
}  // namespace hypatia::sim
