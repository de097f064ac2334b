#include "src/sim/net_device.hpp"

#include <stdexcept>
#include <utility>

#include "src/obs/observability.hpp"

namespace hypatia::sim {

NetDevice::NetDevice(Simulator& sim, int owner_node, double rate_bps,
                     std::size_t queue_capacity, DelayModel delay, DeliverFn deliver,
                     int fixed_peer, LinkUpFn link_up)
    : sim_(sim), owner_(owner_node), rate_bps_(rate_bps), queue_(queue_capacity),
      delay_(std::move(delay)), deliver_(std::move(deliver)),
      link_up_(std::move(link_up)), fixed_peer_(fixed_peer),
      tx_packets_metric_(&obs::metrics().counter("net.tx_packets")),
      tx_bytes_metric_(&obs::metrics().counter("net.tx_bytes")),
      rx_packets_metric_(&obs::metrics().counter("net.rx_packets")),
      drops_metric_(&obs::metrics().counter("net.queue_drops")),
      fault_drops_metric_(&obs::metrics().counter("fault.packets_dropped")),
      queue_depth_metric_(&obs::metrics().histogram("net.queue_depth")),
      tracer_(&obs::tracer()) {
    if (rate_bps <= 0.0) throw std::invalid_argument("net_device: rate must be positive");
}

void NetDevice::drop_on_dead_link(const Packet& packet, int to) {
    fault_drops_metric_->inc();
    if (tracer_->enabled(obs::TraceCategory::kFault)) {
        tracer_->emit(obs::make_record(sim_.now(), obs::TraceCategory::kFault,
                                       "fault.pkt_drop", owner_, to, packet.flow_id,
                                       static_cast<std::int64_t>(packet.seq)));
    }
}

bool NetDevice::send(const Packet& packet, int next_hop) {
    const int target = fixed_peer_ >= 0 ? fixed_peer_ : next_hop;
    if (target < 0) throw std::invalid_argument("net_device: GSL send without next hop");
    queue_depth_metric_->record(backlog());
    if (!busy_) {
        if (tracer_->enabled(obs::TraceCategory::kPacket)) {
            tracer_->emit(obs::make_record(sim_.now(), obs::TraceCategory::kPacket,
                                           "pkt.enqueue", owner_, target,
                                           packet.flow_id,
                                           static_cast<std::int64_t>(packet.seq)));
        }
        in_service_ = {packet, target};
        start_transmission();
        return true;
    }
    if (queue_.enqueue(packet, target)) {
        if (tracer_->enabled(obs::TraceCategory::kPacket)) {
            tracer_->emit(obs::make_record(sim_.now(), obs::TraceCategory::kPacket,
                                           "pkt.enqueue", owner_, target,
                                           packet.flow_id,
                                           static_cast<std::int64_t>(packet.seq)));
        }
        return true;
    }
    drops_metric_->inc();
    if (tracer_->enabled(obs::TraceCategory::kPacket)) {
        tracer_->emit(obs::make_record(sim_.now(), obs::TraceCategory::kPacket,
                                       "pkt.drop", owner_, target, packet.flow_id,
                                       static_cast<std::int64_t>(packet.seq)));
    }
    return false;
}

void NetDevice::start_transmission() {
    busy_ = true;
    const double tx_seconds =
        static_cast<double>(in_service_.packet.size_bytes) * 8.0 / rate_bps_;
    sim_.schedule_in(seconds_to_ns(tx_seconds), [this]() { on_transmit_complete(); });
}

void NetDevice::on_transmit_complete() {
    const Packet& packet = in_service_.packet;
    const int to = in_service_.next_hop;
    tx_bytes_ += static_cast<std::uint64_t>(packet.size_bytes);
    ++tx_packets_;
    tx_bytes_metric_->inc(static_cast<std::uint64_t>(packet.size_bytes));
    tx_packets_metric_->inc();

    // The wavefront left the device; propagation delay is measured from
    // the geometry at this instant.
    const TimeNs prop = delay_(owner_, to, sim_.now());
    if (tracer_->enabled(obs::TraceCategory::kPacket)) {
        tracer_->emit(obs::make_record(sim_.now(), obs::TraceCategory::kPacket,
                                       "pkt.tx", owner_, to, packet.flow_id,
                                       static_cast<std::int64_t>(packet.size_bytes)));
    }
    if (link_up_ && !link_up_(owner_, to, sim_.now())) {
        // The link died while the packet was serializing: the frame
        // leaves a dead transmitter and is lost.
        drop_on_dead_link(packet, to);
    } else {
        std::uint32_t slot;
        if (free_slots_.empty()) {
            slot = static_cast<std::uint32_t>(in_flight_.size());
            in_flight_.push_back(in_service_);
        } else {
            slot = free_slots_.back();
            free_slots_.pop_back();
            in_flight_[slot] = in_service_;
        }
        sim_.schedule_in(prop, [this, slot]() { on_arrival(slot); });
    }

    busy_ = false;
    if (!queue_.empty()) {
        in_service_ = queue_.dequeue();
        start_transmission();
    }
}

void NetDevice::on_arrival(std::uint32_t slot) {
    // Copy out and free the slot first: delivery forwards the packet on,
    // which may reach this device again and reuse (or grow) the pool.
    const DropTailQueue::Entry entry = in_flight_[slot];
    free_slots_.push_back(slot);
    const int to = entry.next_hop;
    if (link_up_ && !link_up_(owner_, to, sim_.now())) {
        // Died mid-flight: the wavefront arrives at a dead receiver and
        // is lost (no loss-free handoff for faults).
        drop_on_dead_link(entry.packet, to);
        return;
    }
    rx_packets_metric_->inc();
    if (tracer_->enabled(obs::TraceCategory::kPacket)) {
        tracer_->emit(obs::make_record(sim_.now(), obs::TraceCategory::kPacket,
                                       "pkt.deliver", to, owner_, entry.packet.flow_id,
                                       static_cast<std::int64_t>(entry.packet.seq)));
    }
    deliver_(entry.packet, to);
}

}  // namespace hypatia::sim
