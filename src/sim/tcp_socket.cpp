#include "src/sim/tcp_socket.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/observability.hpp"
#include "src/obs/recorder.hpp"

namespace hypatia::sim {

TcpFlow::TcpFlow(Network& network, const TcpConfig& config,
                 std::unique_ptr<CongestionControl> cc)
    : network_(network), config_(config), cc_(std::move(cc)),
      retx_metric_(&obs::metrics().counter("tcp.retransmissions")),
      timeouts_metric_(&obs::metrics().counter("tcp.timeouts")),
      fast_retx_metric_(&obs::metrics().counter("tcp.fast_retransmits")),
      dup_acks_metric_(&obs::metrics().counter("tcp.dup_acks")),
      rtt_metric_(&obs::metrics().histogram("tcp.rtt_us")),
      cwnd_metric_(&obs::metrics().histogram("tcp.cwnd_segments")),
      tracer_(&obs::tracer()) {
    if (config.src_node < 0 || config.dst_node < 0) {
        throw std::invalid_argument("tcp: endpoints required");
    }
    cwnd_ = config.initial_cwnd;
    ssthresh_ = config.initial_ssthresh;
    rto_ = std::max(config.min_rto, TimeNs{1 * kNsPerSec});

    network_.node(config.dst_node)
        .set_flow_handler(config.flow_id,
                          [this](const Packet& p) { on_data_packet(p); });
    network_.node(config.src_node)
        .set_flow_handler(config.flow_id, [this](const Packet& p) {
            if (p.kind == PacketKind::kTcpAck) on_ack_packet(p);
        });

    network_.simulator().schedule_at(config.start, [this]() {
        record_cwnd();
        try_send();
    });
}

TimeNs TcpFlow::now() const {
    return const_cast<Network&>(network_).simulator().now();
}

void TcpFlow::set_cwnd(double segments) {
    cwnd_ = std::max(1.0, segments);
    record_cwnd();
}

void TcpFlow::record_cwnd() {
    // Trace every change; callers downsample when plotting.
    cwnd_trace_.push_back({now(), cwnd_, ssthresh_, in_recovery_});
    cwnd_metric_->record(static_cast<std::uint64_t>(std::llround(cwnd_)));
    obs::recorder().record(obs::EventKind::kTcpCwnd, now(), config_.src_node,
                           config_.dst_node, static_cast<std::int32_t>(config_.flow_id),
                           in_recovery_ ? 1 : 0, cwnd_);
    if (tracer_->enabled(obs::TraceCategory::kTcp)) {
        tracer_->emit(obs::make_record(now(), obs::TraceCategory::kTcp, "tcp.cwnd",
                                       config_.src_node, config_.dst_node,
                                       config_.flow_id, in_recovery_ ? 1 : 0, cwnd_));
    }
}

void TcpFlow::enable_delivery_bins(TimeNs bin_width, TimeNs horizon) {
    delivery_bin_width_ = bin_width;
    delivery_bins_.assign(static_cast<std::size_t>(horizon / bin_width) + 1, 0);
}

std::vector<double> TcpFlow::delivery_rate_bps() const {
    std::vector<double> out;
    out.reserve(delivery_bins_.size());
    const double bin_s = ns_to_seconds(delivery_bin_width_);
    for (const auto bytes : delivery_bins_) {
        out.push_back(static_cast<double>(bytes) * 8.0 / bin_s);
    }
    return out;
}

// --------------------------- sender ------------------------------------

void TcpFlow::try_send() {
    const auto window = static_cast<std::uint64_t>(cwnd_);
    const double pacing_rate = cc_->pacing_rate_bps();
    if (pacing_rate <= 0.0) {
        while (snd_nxt_ < snd_una_ + window) {
            if (config_.max_segments > 0 && snd_nxt_ >= config_.max_segments) break;
            send_segment(snd_nxt_, /*retransmission=*/false);
            ++snd_nxt_;
        }
        return;
    }
    // Paced mode: at most one segment per pacing interval.
    if (pace_timer_armed_) return;
    if (snd_nxt_ >= snd_una_ + window) return;
    if (config_.max_segments > 0 && snd_nxt_ >= config_.max_segments) return;
    send_segment(snd_nxt_, /*retransmission=*/false);
    ++snd_nxt_;
    pace_timer_armed_ = true;
    const std::uint64_t generation = ++pace_generation_;
    const double wire_bits =
        static_cast<double>(config_.mss_bytes + kHeaderBytes) * 8.0;
    network_.simulator().schedule_in(
        seconds_to_ns(wire_bits / pacing_rate), [this, generation]() {
            if (generation != pace_generation_) return;
            pace_timer_armed_ = false;
            try_send();
        });
}

void TcpFlow::send_segment(std::uint64_t seq, bool retransmission) {
    Packet p;
    p.kind = PacketKind::kTcpData;
    p.src_node = config_.src_node;
    p.dst_node = config_.dst_node;
    p.size_bytes = config_.mss_bytes + kHeaderBytes;
    p.payload_bytes = config_.mss_bytes;
    p.flow_id = config_.flow_id;
    p.seq = seq;
    p.sent_time = now();
    if (retransmission) {
        ++retransmissions_;
        retx_metric_->inc();
        if (tracer_->enabled(obs::TraceCategory::kTcp)) {
            tracer_->emit(obs::make_record(now(), obs::TraceCategory::kTcp,
                                           "tcp.retransmit", config_.src_node,
                                           config_.dst_node, config_.flow_id,
                                           static_cast<std::int64_t>(seq)));
        }
    }
    network_.node(config_.src_node).receive(p);
    if (!rto_armed_) arm_rto();
}

void TcpFlow::arm_rto() {
    rto_armed_ = true;
    const std::uint64_t generation = ++rto_generation_;
    network_.simulator().schedule_in(rto_, [this, generation]() {
        if (generation != rto_generation_) return;  // re-armed or cancelled
        rto_armed_ = false;
        if (flight_size() > 0) on_rto();
    });
}

void TcpFlow::on_rto() {
    ++timeouts_;
    timeouts_metric_->inc();
    if (tracer_->enabled(obs::TraceCategory::kTcp)) {
        tracer_->emit(obs::make_record(now(), obs::TraceCategory::kTcp, "tcp.rto",
                                       config_.src_node, config_.dst_node,
                                       config_.flow_id,
                                       static_cast<std::int64_t>(snd_una_)));
    }
    if (on_event) on_event("rto", snd_una_);
    cc_->on_loss(*this, /*timeout=*/true);
    set_cwnd(1.0);
    dup_acks_ = 0;
    in_recovery_ = false;
    rto_ = std::min(config_.max_rto, rto_ * 2);  // Karn backoff
    obs::recorder().record(obs::EventKind::kTcpRto, now(), config_.src_node,
                           config_.dst_node, static_cast<std::int32_t>(config_.flow_id),
                           -1, ns_to_seconds(rto_));
    // RFC 6582: remember the highest sequence sent so stale duplicate
    // ACKs from before this timeout cannot trigger fast retransmit.
    recover_ = snd_nxt_;
    // Go-back-N restart from the first unacknowledged segment.
    snd_nxt_ = snd_una_;
    send_segment(snd_nxt_, /*retransmission=*/true);
    ++snd_nxt_;
    arm_rto();
}

void TcpFlow::enter_fast_recovery() {
    ++fast_retransmits_;
    fast_retx_metric_->inc();
    if (tracer_->enabled(obs::TraceCategory::kTcp)) {
        tracer_->emit(obs::make_record(now(), obs::TraceCategory::kTcp,
                                       "tcp.recovery_enter", config_.src_node,
                                       config_.dst_node, config_.flow_id,
                                       static_cast<std::int64_t>(snd_una_)));
    }
    if (on_event) on_event("fast_retransmit", snd_una_);
    cc_->on_loss(*this, /*timeout=*/false);
    in_recovery_ = true;
    partial_ack_seen_ = false;
    recover_ = snd_nxt_;
    hole_cursor_ = snd_una_;
    retransmit_next_hole();
    set_cwnd(ssthresh_ + 3.0);  // window inflation per RFC 6582
    arm_rto();
}

bool TcpFlow::retransmit_next_hole() {
    if (!config_.sack) {
        // Plain NewReno: the only known hole is snd_una itself.
        send_segment(snd_una_, /*retransmission=*/true);
        return true;
    }
    std::uint64_t seq = std::max(hole_cursor_, snd_una_);
    while (seq < recover_) {
        const bool receiver_has =
            std::binary_search(out_of_order_.begin(), out_of_order_.end(), seq) ||
            seq < rcv_nxt_;
        if (!receiver_has) {
            hole_cursor_ = seq + 1;
            send_segment(seq, /*retransmission=*/true);
            return true;
        }
        ++seq;
    }
    hole_cursor_ = seq;
    return false;
}

void TcpFlow::on_ack_packet(const Packet& ack) {
    // RTT sample from the echoed timestamp (valid across retransmissions,
    // Karn-safe).
    TimeNs rtt = 0;
    if (ack.echo_time > 0) {
        rtt = now() - ack.echo_time;
        rtt_trace_.push_back({now(), rtt});
        rtt_metric_->record(static_cast<std::uint64_t>(rtt / kNsPerUs));
        // Jacobson/Karels.
        if (srtt_ == 0) {
            srtt_ = rtt;
            rttvar_ = rtt / 2;
        } else {
            const TimeNs err = rtt - srtt_;
            srtt_ += err / 8;
            rttvar_ += (std::abs(err) - rttvar_) / 4;
        }
        rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.min_rto, config_.max_rto);
    }

    if (ack.ack > snd_una_) {
        const auto acked = static_cast<int>(ack.ack - snd_una_);
        snd_una_ = ack.ack;
        // After an RTO's go-back-N, a cumulative ACK (for data the
        // receiver had buffered) can pass snd_nxt; never re-send below
        // snd_una.
        if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
        cc_->on_ack_model(*this, acked, rtt);

        if (in_recovery_) {
            if (snd_una_ >= recover_) {
                // Full ACK: leave recovery, deflate to ssthresh.
                in_recovery_ = false;
                dup_acks_ = 0;
                if (tracer_->enabled(obs::TraceCategory::kTcp)) {
                    tracer_->emit(obs::make_record(
                        now(), obs::TraceCategory::kTcp, "tcp.recovery_exit",
                        config_.src_node, config_.dst_node, config_.flow_id,
                        static_cast<std::int64_t>(snd_una_)));
                }
                if (on_event) on_event("full_ack", snd_una_);
                set_cwnd(ssthresh_);
                ++rto_generation_;
                rto_armed_ = false;
                if (flight_size() > 0) arm_rto();
            } else {
                // Partial ACK (RFC 6582): retransmit the next hole and
                // deflate by the amount acked (plus one for the
                // retransmission). Reset the retransmit timer only for the
                // *first* partial ACK ("impatient" variant), so a heavy
                // loss episode falls back to RTO instead of crawling one
                // hole per RTT indefinitely.
                if (on_event) on_event("partial_ack", snd_una_);
                retransmit_next_hole();
                set_cwnd(std::max(1.0, cwnd_ - acked + 1.0));
                if (!config_.impatient_rto || !partial_ack_seen_) {
                    partial_ack_seen_ = true;
                    ++rto_generation_;
                    rto_armed_ = false;
                    arm_rto();
                }
            }
        } else {
            dup_acks_ = 0;
            ++rto_generation_;  // cancel
            rto_armed_ = false;
            if (flight_size() > 0) arm_rto();
            cc_->on_ack(*this, acked, rtt);
        }
        try_send();
        return;
    }

    // Duplicate ACK.
    if (flight_size() == 0) return;
    ++dup_acks_total_;
    dup_acks_metric_->inc();
    if (on_event) on_event("dup_ack", ack.ack);
    if (in_recovery_) {
        // Packet conservation: each arriving ACK grants one retransmission
        // of the next hole (SACK recovery); once the scoreboard is clean,
        // inflate the window and send new data (NewReno behaviour).
        if (!retransmit_next_hole()) {
            const double cap =
                ssthresh_ + static_cast<double>(recover_ - snd_una_) + 3.0;
            set_cwnd(std::min(cwnd_ + 1.0, cap));
            try_send();
        }
        return;
    }
    if (++dup_acks_ == 3) {
        // RFC 6582 "careful" entry: ignore duplicate ACKs left over from a
        // previous recovery episode (retransmission ambiguity) — only
        // enter when the cumulative ACK has passed the old recover point.
        if (snd_una_ >= recover_) {
            enter_fast_recovery();
            try_send();
        } else {
            dup_acks_ = 0;
        }
    }
}

// --------------------------- receiver ----------------------------------

void TcpFlow::on_data_packet(const Packet& data) {
    const std::uint64_t seq = data.seq;

    if (seq == rcv_nxt_) {
        ++rcv_nxt_;
        ++delivered_segments_;
        ++segments_received_;
        if (!delivery_bins_.empty()) {
            const auto bin = static_cast<std::size_t>(now() / delivery_bin_width_);
            if (bin < delivery_bins_.size()) {
                delivery_bins_[bin] += static_cast<std::uint64_t>(data.payload_bytes);
            }
        }
        // Drain any contiguous buffered segments.
        auto it = out_of_order_.begin();
        while (it != out_of_order_.end() && *it == rcv_nxt_) {
            ++rcv_nxt_;
            ++delivered_segments_;
            if (!delivery_bins_.empty()) {
                const auto bin = static_cast<std::size_t>(now() / delivery_bin_width_);
                if (bin < delivery_bins_.size()) {
                    delivery_bins_[bin] += static_cast<std::uint64_t>(data.payload_bytes);
                }
            }
            ++it;
        }
        out_of_order_.erase(out_of_order_.begin(), it);

        if (!out_of_order_.empty()) {
            send_ack(data.sent_time);  // still a hole: ack immediately
        } else {
            maybe_delay_ack(data.sent_time);
        }
        return;
    }

    if (seq > rcv_nxt_) {
        // Out of order: buffer and emit an immediate duplicate ACK.
        const auto it = std::lower_bound(out_of_order_.begin(), out_of_order_.end(), seq);
        if (it == out_of_order_.end() || *it != seq) {
            out_of_order_.insert(it, seq);
            ++segments_received_;
        }
        send_ack(data.sent_time);
        return;
    }

    // Old duplicate (seq < rcv_nxt): re-ack immediately.
    send_ack(data.sent_time);
}

void TcpFlow::maybe_delay_ack(TimeNs echo_time) {
    if (!config_.delayed_ack) {
        send_ack(echo_time);
        return;
    }
    if (pending_ack_segments_ == 0) pending_ack_echo_ = echo_time;
    if (++pending_ack_segments_ >= config_.delayed_ack_count) {
        send_ack(pending_ack_echo_);
        return;
    }
    // First pending segment: arm the delayed-ACK timer. While the
    // generation matches no ACK went out, so pending_ack_echo_ is still
    // the echo of the first pending segment.
    const std::uint64_t generation = ++delack_generation_;
    network_.simulator().schedule_in(config_.delayed_ack_timeout, [this, generation]() {
        if (generation != delack_generation_) return;
        if (pending_ack_segments_ > 0) send_ack(pending_ack_echo_);
    });
}

void TcpFlow::send_ack(TimeNs echo_time) {
    pending_ack_segments_ = 0;
    ++delack_generation_;  // cancel any armed delayed-ACK timer
    Packet p;
    p.kind = PacketKind::kTcpAck;
    p.src_node = config_.dst_node;
    p.dst_node = config_.src_node;
    p.size_bytes = kHeaderBytes;
    p.payload_bytes = 0;
    p.flow_id = config_.flow_id;
    p.ack = rcv_nxt_;
    p.sent_time = now();
    p.echo_time = echo_time;
    network_.node(config_.dst_node).receive(p);
}

}  // namespace hypatia::sim
