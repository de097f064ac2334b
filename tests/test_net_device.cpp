#include "src/sim/net_device.hpp"

#include <deque>
#include <random>

#include <gtest/gtest.h>

#include "src/sim/network.hpp"

namespace hypatia::sim {
namespace {

// The circular buffer wraps and grows (doubling, capped at a capacity
// that is not a power of two) while staying FIFO, and drops only when
// the capacity is reached; a std::deque is the oracle.
TEST(DropTailQueue, FifoAcrossWrapAndGrowth) {
    DropTailQueue q(7);
    std::deque<std::uint64_t> oracle;
    std::mt19937_64 rng(3);
    std::uint64_t next = 0;
    std::uint64_t drops = 0;
    for (int op = 0; op < 5000; ++op) {
        if (rng() % 5 < 3) {
            Packet p;
            p.seq = next++;
            const bool accepted = q.enqueue(p, static_cast<int>(p.seq % 4));
            EXPECT_EQ(accepted, oracle.size() < 7);
            if (accepted) {
                oracle.push_back(p.seq);
            } else {
                ++drops;
            }
        } else if (!oracle.empty()) {
            const DropTailQueue::Entry e = q.dequeue();
            ASSERT_EQ(e.packet.seq, oracle.front());
            EXPECT_EQ(e.next_hop, static_cast<int>(e.packet.seq % 4));
            oracle.pop_front();
        }
        ASSERT_EQ(q.size(), oracle.size());
    }
    EXPECT_EQ(q.drops(), drops);
    EXPECT_GT(drops, 0u);
}

// A two-node wire: node 0 -> node 1, fixed propagation delay.
struct Wire {
    Simulator sim;
    Network net{sim};
    std::vector<Packet> delivered;

    Wire(double rate_bps, std::size_t qcap, TimeNs prop_delay) {
        net.create_nodes(2);
        net.add_isl(0, 1, rate_bps, qcap,
                    [prop_delay](int, int, TimeNs) { return prop_delay; });
        net.node(0).set_next_hop(1, 1);
        net.node(1).set_flow_handler(1, [this](const Packet& p) {
            delivered.push_back(p);
        });
    }

    Packet make_packet(int bytes) {
        Packet p;
        p.src_node = 0;
        p.dst_node = 1;
        p.size_bytes = bytes;
        p.flow_id = 1;
        return p;
    }
};

TEST(NetDevice, SerializationPlusPropagation) {
    // 1000 bytes at 1 Mbit/s = 8 ms serialization; +2 ms propagation.
    Wire w(1e6, 10, 2 * kNsPerMs);
    w.net.node(0).receive(w.make_packet(1000));
    w.sim.run_until(100 * kNsPerMs);
    ASSERT_EQ(w.delivered.size(), 1u);
    // Delivery happens exactly at 8 + 2 = 10 ms... but forwarding counts a
    // hop; verify via the simulator clock of the delivery event instead.
    EXPECT_EQ(w.net.node(1).delivered_packets(), 1u);
}

TEST(NetDevice, DeliveryTimeExact) {
    Wire w(1e6, 10, 2 * kNsPerMs);
    TimeNs delivery_time = -1;
    w.net.node(1).set_flow_handler(1, [&](const Packet&) {
        delivery_time = w.sim.now();
    });
    w.net.node(0).receive(w.make_packet(1000));
    w.sim.run_until(100 * kNsPerMs);
    EXPECT_EQ(delivery_time, 10 * kNsPerMs);
}

TEST(NetDevice, BackToBackPacketsSerialize) {
    Wire w(1e6, 10, 0);
    std::vector<TimeNs> deliveries;
    w.net.node(1).set_flow_handler(1, [&](const Packet&) {
        deliveries.push_back(w.sim.now());
    });
    // Two 1000-byte packets injected simultaneously: second waits 8 ms.
    w.net.node(0).receive(w.make_packet(1000));
    w.net.node(0).receive(w.make_packet(1000));
    w.sim.run_until(kNsPerSec);
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0], 8 * kNsPerMs);
    EXPECT_EQ(deliveries[1], 16 * kNsPerMs);
}

TEST(NetDevice, QueueOverflowDrops) {
    Wire w(1e6, 2, 0);  // queue of 2 + 1 in flight
    for (int i = 0; i < 10; ++i) w.net.node(0).receive(w.make_packet(1000));
    w.sim.run_until(kNsPerSec);
    // 1 transmitting + 2 queued survive; 7 dropped.
    EXPECT_EQ(w.delivered.size(), 3u);
    EXPECT_EQ(w.net.total_queue_drops(), 7u);
}

TEST(NetDevice, CountsTxBytes) {
    Wire w(1e6, 10, 0);
    w.net.node(0).receive(w.make_packet(400));
    w.net.node(0).receive(w.make_packet(600));
    w.sim.run_until(kNsPerSec);
    const auto& dev = *w.net.devices()[0];
    EXPECT_EQ(dev.tx_bytes(), 1000u);
    EXPECT_EQ(dev.tx_packets(), 2u);
}

TEST(NetDevice, GslSendsToPerPacketNextHop) {
    Simulator sim;
    Network net(sim);
    net.create_nodes(3);  // node 0 has a GSL; nodes 1 and 2 receive
    net.add_gsl(0, 1e6, 10, [](int, int to, TimeNs) {
        return to == 1 ? 1 * kNsPerMs : 5 * kNsPerMs;
    });
    std::vector<int> arrivals;
    for (int n : {1, 2}) {
        net.node(n).set_flow_handler(7, [&arrivals, n](const Packet&) {
            arrivals.push_back(n);
        });
    }
    // Route both flows through node 0's forwarding table.
    net.node(0).set_next_hop(1, 1);
    net.node(0).set_next_hop(2, 2);
    Packet p;
    p.src_node = 0;
    p.flow_id = 7;
    p.size_bytes = 100;
    p.dst_node = 1;
    net.node(0).receive(p);
    p.dst_node = 2;
    net.node(0).receive(p);
    sim.run_until(kNsPerSec);
    EXPECT_EQ(arrivals.size(), 2u);
}

TEST(NetDevice, PropagationDelayEvaluatedAtTransmitTime) {
    // Delay model returns the current time scaled: verifies the delay is
    // computed when the packet leaves, not when it is enqueued.
    Simulator sim;
    Network net(sim);
    net.create_nodes(2);
    net.add_isl(0, 1, 1e6, 10, [](int, int, TimeNs t) {
        return t < 8 * kNsPerMs ? 1 * kNsPerMs : 10 * kNsPerMs;
    });
    net.node(0).set_next_hop(1, 1);
    std::vector<TimeNs> deliveries;
    net.node(1).set_flow_handler(1, [&](const Packet&) {
        deliveries.push_back(sim.now());
    });
    Packet p;
    p.src_node = 0;
    p.dst_node = 1;
    p.size_bytes = 1000;  // 8 ms serialization
    p.flow_id = 1;
    net.node(0).receive(p);  // finishes serializing at t=8ms -> delay 10ms
    sim.run_until(kNsPerSec);
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0], 18 * kNsPerMs);
}

TEST(NetDevice, RejectsNonPositiveRate) {
    Simulator sim;
    EXPECT_THROW(NetDevice(sim, 0, 0.0, 10, {}, {}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace hypatia::sim
