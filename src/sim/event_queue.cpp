#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace hypatia::sim {

namespace {
constexpr std::int64_t kRingMask = EventQueue::kRingBuckets - 1;
static_assert((EventQueue::kRingBuckets & kRingMask) == 0, "ring length must be 2^k");
}  // namespace

EventQueue::EventQueue() : ring_(static_cast<std::size_t>(kRingBuckets), kNil) {}

void EventQueue::push(TimeNs t, Callback cb) {
    std::uint32_t s = free_;
    if (s != kNil) {
        free_ = slots_[s].next;
        slots_[s].cb = std::move(cb);
    } else {
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{0, 0, kNil, std::move(cb)});
    }
    slots_[s].time = t;
    slots_[s].seq = next_seq_++;
    // An empty queue restarts the calendar at the new event's bucket.
    if (size_++ == 0) cur_ = bucket_of(t);
    file(s);
}

void EventQueue::file(std::uint32_t s) {
    Slot& slot = slots_[s];
    const std::int64_t b = bucket_of(slot.time);
    if (b <= cur_) {
        heap_.push_back({slot.time, slot.seq, s});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    } else if (b - cur_ < kRingBuckets) {
        const auto idx = static_cast<std::size_t>(b & kRingMask);
        slot.next = ring_[idx];
        ring_[idx] = s;
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        ++ring_count_;
    } else {
        slot.next = overflow_;
        overflow_ = s;
        overflow_min_ = std::min(overflow_min_, b);
    }
}

EventQueue::Callback EventQueue::pop(TimeNs* time_out) {
    if (size_ == 0) throw std::logic_error("event queue: pop() on empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    Slot& slot = slots_[top.slot];
    Callback cb = std::move(slot.cb);
    slot.next = free_;
    free_ = top.slot;
    if (time_out != nullptr) *time_out = top.time;
    if (--size_ > 0 && heap_.empty()) refill();
    return cb;
}

void EventQueue::refill() {
    if (ring_count_ == 0) {
        // Everything left is past the horizon: jump to the overflow's
        // earliest bucket, which lands in the heap.
        cur_ = overflow_min_;
        migrate_overflow();
        return;
    }
    cur_ = next_ring_bucket();
    const auto idx = static_cast<std::size_t>(cur_ & kRingMask);
    for (std::uint32_t s = ring_[idx]; s != kNil; s = slots_[s].next) {
        heap_.push_back({slots_[s].time, slots_[s].seq, s});
        --ring_count_;
    }
    ring_[idx] = kNil;
    occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    if (overflow_ != kNil && overflow_min_ - cur_ < kRingBuckets) migrate_overflow();
}

void EventQueue::migrate_overflow() {
    std::uint32_t s = overflow_;
    overflow_ = kNil;
    overflow_min_ = kNoBucket;
    while (s != kNil) {
        const std::uint32_t next = slots_[s].next;
        file(s);
        s = next;
    }
}

std::int64_t EventQueue::next_ring_bucket() const {
    const std::int64_t start = cur_ + 1;
    std::int64_t scanned = 0;
    while (true) {
        const auto pos = static_cast<std::size_t>((start + scanned) & kRingMask);
        const std::uint64_t bits = occupied_[pos >> 6] >> (pos & 63);
        if (bits != 0) return start + scanned + __builtin_ctzll(bits);
        scanned += static_cast<std::int64_t>(64 - (pos & 63));
    }
}

}  // namespace hypatia::sim
