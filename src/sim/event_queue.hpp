// The discrete-event core: a time-ordered queue of callbacks with stable
// FIFO ordering for simultaneous events (ties broken by insertion order,
// like ns-3's scheduler).
//
// A two-tier calendar queue (DESIGN.md "Packet engine event core").
// Callbacks live in a slab of reusable slots. Time is cut into buckets
// of 2^20 ns (~1.05 ms). Only the events of buckets up to the current
// one sit in a small binary heap ordered by (time, seq); later events
// wait on intrusive per-bucket lists threaded through the slab, on a
// ring of 2048 buckets (~2.15 s, enough for TCP's 1 s minimum RTO and
// 200 ms delayed ACK). Events beyond the ring's horizon wait on one
// overflow list that is migrated only when the horizon reaches its
// earliest bucket. When the heap empties, the next occupied bucket
// (found through an occupancy bitmap) is moved into it whole.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/util/units.hpp"

namespace hypatia::sim {

class EventQueue {
  public:
    using Callback = std::function<void()>;

    /// Bucket width is 2^kBucketShift ns; the ring holds kRingBuckets
    /// buckets ahead of the current one.
    static constexpr int kBucketShift = 20;
    static constexpr std::int64_t kRingBuckets = 2048;

    EventQueue();

    /// Schedules `cb` at absolute time `t` (must be >= the last popped
    /// event's time; enforced by the Simulator wrapper).
    void push(TimeNs t, Callback cb);

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /// Time of the earliest pending event. Precondition: !empty() —
    /// an empty queue throws std::logic_error.
    TimeNs next_time() const {
        if (heap_.empty()) {
            throw std::logic_error("event queue: next_time() on empty queue");
        }
        return heap_.front().time;
    }

    /// Pops and returns the earliest event's callback. Precondition:
    /// !empty() (throws std::logic_error, like next_time()).
    Callback pop(TimeNs* time_out = nullptr);

  private:
    static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
    static constexpr std::int64_t kNoBucket = std::numeric_limits<std::int64_t>::max();

    struct Slot {
        TimeNs time = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = kNil;  // bucket, overflow or free list link
        Callback cb;
    };
    struct HeapEntry {
        TimeNs time;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct Later {
        bool operator()(const HeapEntry& a, const HeapEntry& b) const {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    static std::int64_t bucket_of(TimeNs t) { return t >> kBucketShift; }

    /// Files slot `s` by its bucket: heap (<= current bucket), ring, or
    /// overflow (at or past the horizon).
    void file(std::uint32_t s);
    /// Heap empty, queue not: advances to the next occupied bucket.
    void refill();
    /// Re-files the whole overflow list against the current horizon.
    void migrate_overflow();
    /// Absolute number of the first occupied ring bucket after cur_.
    std::int64_t next_ring_bucket() const;

    std::vector<Slot> slots_;
    std::uint32_t free_ = kNil;
    std::vector<HeapEntry> heap_;
    std::vector<std::uint32_t> ring_;  // list head per ring bucket
    std::array<std::uint64_t, kRingBuckets / 64> occupied_{};
    std::size_t ring_count_ = 0;
    std::uint32_t overflow_ = kNil;
    std::int64_t overflow_min_ = kNoBucket;  // earliest bucket on the overflow list
    std::int64_t cur_ = 0;                   // the heap holds buckets <= cur_
    std::size_t size_ = 0;
    std::uint64_t next_seq_ = 0;
};

}  // namespace hypatia::sim
