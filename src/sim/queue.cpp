#include "src/sim/queue.hpp"

#include <algorithm>

namespace hypatia::sim {

bool DropTailQueue::enqueue(const Packet& p, int next_hop) {
    if (size_ >= capacity_) {
        ++drops_;
        return false;
    }
    if (size_ == ring_.size()) grow();
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = {p, next_hop};
    ++size_;
    ++enqueues_;
    return true;
}

DropTailQueue::Entry DropTailQueue::dequeue() {
    const Entry e = ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
    return e;
}

void DropTailQueue::grow() {
    // Unrolls the full ring into a buffer twice as long (capped at the
    // capacity), oldest entry first.
    std::vector<Entry> grown(std::min(capacity_, std::max<std::size_t>(4, 2 * ring_.size())));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = ring_[(head_ + i) % ring_.size()];
    ring_.swap(grown);
    head_ = 0;
}

}  // namespace hypatia::sim
