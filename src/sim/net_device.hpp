// Network devices: a transmitter with a drop-tail queue and a data rate.
//
// Two flavours mirror Hypatia's ns-3 module (paper section 3.1):
//  * ISL device  — point-to-point to a fixed peer satellite; one device
//    (and one queue) per direction per ISL.
//  * GSL device  — one per satellite and per ground station; serializes
//    all its outgoing packets through a single queue but can address any
//    GSL peer ("each network device can send packets to any other GSL
//    network device, as long as the forwarding plan allows it").
//
// Propagation delay is evaluated per packet at transmit time from the
// current satellite/GS geometry, so link latencies vary continuously as
// satellites move, and packets already in flight during a handoff are
// still delivered (the paper's loss-free handoff assumption).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/queue.hpp"
#include "src/sim/simulator.hpp"

namespace hypatia::sim {

/// Propagation delay between two nodes at a given time.
using DelayModel = std::function<TimeNs(int from_node, int to_node, TimeNs t)>;

/// Called when a packet finishes propagating: deliver to `to_node`.
using DeliverFn = std::function<void(const Packet&, int to_node)>;

/// Link health probe (fault injection): false when the hop from_node ->
/// to_node is dead at `t`. Consulted when the wavefront leaves the
/// device and again at the delivery instant, so a link that dies while
/// a packet is in flight loses that packet (a dead transceiver cannot
/// receive). nullptr = always up.
using LinkUpFn = std::function<bool(int from_node, int to_node, TimeNs t)>;

class NetDevice {
  public:
    /// `fixed_peer` >= 0 makes this a point-to-point (ISL) device; -1 a
    /// GSL device that sends to whatever next hop each packet carries.
    NetDevice(Simulator& sim, int owner_node, double rate_bps,
              std::size_t queue_capacity, DelayModel delay, DeliverFn deliver,
              int fixed_peer = -1, LinkUpFn link_up = nullptr);
    // Scheduled events hold `this`.
    NetDevice(const NetDevice&) = delete;
    NetDevice& operator=(const NetDevice&) = delete;

    /// Enqueues toward `next_hop` (ignored for ISL devices, which always
    /// use their fixed peer). Returns false if the queue dropped it.
    bool send(const Packet& packet, int next_hop);

    int owner_node() const { return owner_; }
    int fixed_peer() const { return fixed_peer_; }
    bool is_gsl() const { return fixed_peer_ < 0; }
    double rate_bps() const { return rate_bps_; }

    const DropTailQueue& queue() const { return queue_; }
    std::uint64_t tx_bytes() const { return tx_bytes_; }
    std::uint64_t tx_packets() const { return tx_packets_; }

    /// Packets in the device (queued + the one being serialized).
    std::size_t backlog() const { return queue_.size() + (busy_ ? 1 : 0); }

  private:
    // The per-hop events capture only `this` (plus an in-flight slot
    // index), which fits std::function's inline buffer: no allocation
    // per hop.
    void start_transmission();  // serializes in_service_
    void on_transmit_complete();
    void on_arrival(std::uint32_t slot);
    void drop_on_dead_link(const Packet& packet, int to);

    Simulator& sim_;
    int owner_;
    double rate_bps_;
    DropTailQueue queue_;
    DelayModel delay_;
    DeliverFn deliver_;
    LinkUpFn link_up_;
    int fixed_peer_;
    bool busy_ = false;
    DropTailQueue::Entry in_service_;  // the packet being serialized while busy_
    // Packets propagating toward their next hop, by slot; freed slots are
    // reused, so the pool grows only to the peak number in flight.
    std::vector<DropTailQueue::Entry> in_flight_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t tx_bytes_ = 0;
    std::uint64_t tx_packets_ = 0;
    // Shared registry instruments (one set of names across all devices)
    // and the tracer, resolved once at construction.
    obs::Counter* tx_packets_metric_;
    obs::Counter* tx_bytes_metric_;
    obs::Counter* rx_packets_metric_;
    obs::Counter* drops_metric_;
    obs::Counter* fault_drops_metric_;
    obs::Histogram* queue_depth_metric_;
    obs::Tracer* tracer_;
};

}  // namespace hypatia::sim
