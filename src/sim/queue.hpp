// Drop-tail FIFO packet queue with byte/packet statistics — the queueing
// discipline the paper's experiments use (100-packet device queues).
//
// Storage is a circular buffer that grows only when it is full (doubling,
// capped at the capacity), so it tracks the queue's peak occupancy and
// steady-state enqueue/dequeue never allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/packet.hpp"

namespace hypatia::sim {

class DropTailQueue {
  public:
    explicit DropTailQueue(std::size_t capacity_packets)
        : capacity_(capacity_packets) {}

    struct Entry {
        Packet packet;
        int next_hop = -1;  // routing decision made at enqueue time
    };

    /// Returns false (and counts a drop) when full.
    bool enqueue(const Packet& p, int next_hop);
    /// Precondition: !empty().
    Entry dequeue();

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t drops() const { return drops_; }
    std::uint64_t enqueues() const { return enqueues_; }

  private:
    void grow();

    std::size_t capacity_;
    std::vector<Entry> ring_;  // ring_.size() is the current buffer length
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t drops_ = 0;
    std::uint64_t enqueues_ = 0;
};

}  // namespace hypatia::sim
