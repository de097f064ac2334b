#include "src/sim/event_queue.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/tcp_socket.hpp"

// --- Allocation counting hook (for the allocation pin) ---------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// GCC takes free() of the replaced operator new's memory for a
// mismatch; both halves of the pair are replaced here, so it is exact.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hypatia::sim {
namespace {

// --- The oracle -------------------------------------------------------------

// The binary-heap queue the calendar queue replaced: a std::priority_queue
// of (time, seq, callback). Kept only here, to pin the pop order.
class OracleQueue {
  public:
    using Callback = EventQueue::Callback;
    void push(TimeNs t, Callback cb) { heap_.push(Event{t, next_seq_++, std::move(cb)}); }
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    TimeNs next_time() const { return heap_.top().time; }
    Callback pop(TimeNs* time_out) {
        Event& top = const_cast<Event&>(heap_.top());
        Callback cb = std::move(top.cb);
        *time_out = top.time;
        heap_.pop();
        return cb;
    }

  private:
    struct Event {
        TimeNs time;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    std::uint64_t next_seq_ = 0;
};

// Simulator::run_until's contract over the oracle queue.
class OracleSimulator {
  public:
    TimeNs now() const { return now_; }
    void schedule_at(TimeNs t, EventQueue::Callback cb) { queue_.push(t, std::move(cb)); }
    void stop() { stopped_ = true; }
    std::size_t events_pending() const { return queue_.size(); }
    std::uint64_t run_until(TimeNs t_end) {
        stopped_ = false;
        std::uint64_t executed = 0;
        while (!queue_.empty() && !stopped_ && queue_.next_time() <= t_end) {
            TimeNs t = 0;
            auto cb = queue_.pop(&t);
            now_ = t;
            cb();
            ++executed;
        }
        if (!stopped_ && now_ < t_end) now_ = t_end;
        return executed;
    }

  private:
    TimeNs now_ = 0;
    bool stopped_ = false;
    OracleQueue queue_;
};

constexpr TimeNs kBucketNs = TimeNs{1} << EventQueue::kBucketShift;
constexpr TimeNs kRingNs = kBucketNs * EventQueue::kRingBuckets;

// A time at or after `now` in one of the calendar's interesting
// regions: a tie with `now`, the current bucket, on or just before a
// bucket boundary, the near ring, the far ring, the horizon edge, or
// past it (the overflow list).
TimeNs draw_time(std::mt19937_64& rng, TimeNs now) {
    auto below = [&rng](TimeNs n) {
        return static_cast<TimeNs>(rng() % static_cast<std::uint64_t>(n));
    };
    switch (rng() % 8) {
        case 0: return now;
        case 1: return now + below(kBucketNs / 64);
        case 2: return now + below(kBucketNs);
        case 3: return ((now / kBucketNs + 1 + below(4)) * kBucketNs) - below(2);
        case 4: return now + below(64 * kBucketNs);
        case 5: return now + below(kRingNs);
        case 6: return now + kRingNs - kBucketNs + below(2 * kBucketNs);
        default: return now + kRingNs + below(6 * kRingNs);
    }
}

// Random push/pop interleavings on both queues: every pop must return
// the same event at the same time. Drain phases followed by far pushes
// open gaps longer than the ring, with the ring empty and only the
// overflow list holding events.
template <typename Queue>
std::vector<std::pair<int, TimeNs>> drive_queue(std::uint64_t seed, int ops) {
    Queue q;
    std::mt19937_64 rng(seed);
    std::vector<std::pair<int, TimeNs>> log;
    TimeNs now = 0;
    int next_id = 0;
    int popped = -1;
    auto pop_one = [&] {
        TimeNs t = -1;
        q.pop(&t)();
        now = t;
        log.emplace_back(popped, t);
    };
    for (int op = 0; op < ops; ++op) {
        const auto roll = rng() % 100;
        if (roll < 2) {
            // Drain to at most one event, then push past the ring.
            while (q.size() > rng() % 2) pop_one();
            const TimeNs gap = kRingNs * static_cast<TimeNs>(1 + rng() % 5) +
                               static_cast<TimeNs>(rng() % kRingNs);
            const int id = next_id++;
            q.push(now + gap, [&popped, id] { popped = id; });
        } else if (roll < 55 || q.empty()) {
            // Bursts of same-time pushes exercise FIFO ties.
            const TimeNs t = draw_time(rng, now);
            for (int k = 1 + static_cast<int>(rng() % 3 == 0 ? rng() % 4 : 0); k > 0; --k) {
                const int id = next_id++;
                q.push(t, [&popped, id] { popped = id; });
            }
        } else {
            pop_one();
        }
        log.emplace_back(-1, static_cast<TimeNs>(q.size()));
    }
    while (!q.empty()) pop_one();
    return log;
}

TEST(EventQueueDifferential, MatchesPriorityQueueOracle) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const auto got = drive_queue<EventQueue>(seed, 20000);
        const auto want = drive_queue<OracleQueue>(seed, 20000);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " step " << i;
        }
    }
}

// Pushes into the bucket being drained (after it was moved to the heap)
// must still pop in (time, seq) order, including ties with events that
// were already there.
TEST(EventQueueDifferential, PushesIntoCurrentBucketAfterRefill) {
    EventQueue q;
    std::vector<int> order;
    q.push(5 * kBucketNs + 100, [&] { order.push_back(0); });
    q.push(5 * kBucketNs + 300, [&] { order.push_back(1); });
    q.push(5 * kBucketNs + 300, [&] { order.push_back(2); });
    TimeNs t = 0;
    q.pop(&t)();  // restarts the calendar at bucket 5
    EXPECT_EQ(t, 5 * kBucketNs + 100);
    q.push(5 * kBucketNs + 300, [&] { order.push_back(3); });
    q.push(5 * kBucketNs + 200, [&] { order.push_back(4); });
    q.push(5 * kBucketNs + 100, [&] { order.push_back(5); });
    while (!q.empty()) q.pop()();
    EXPECT_EQ(order, (std::vector<int>{0, 5, 4, 1, 2, 3}));
}

TEST(EventQueueDifferential, GapLongerThanRingJumpsToOverflow) {
    EventQueue q;
    std::vector<TimeNs> times;
    const TimeNs far = 10 * kRingNs + 7;
    q.push(1, [] {});
    q.push(far + kRingNs, [] {});  // stays on the overflow after the jump
    q.push(far, [] {});
    q.push(far + 1, [] {});
    while (!q.empty()) {
        TimeNs t = 0;
        q.pop(&t);
        times.push_back(t);
    }
    EXPECT_EQ(times, (std::vector<TimeNs>{1, far, far + 1, far + kRingNs}));
}

// A random event process (each event spawns 0-2 children at drawn
// delays and sometimes calls stop()) run in random run_until slices on
// the Simulator and on the oracle simulator: same events, same clock,
// same per-call counts, including resumes after stop().
template <typename Sim>
struct Process {
    Sim sim;
    std::uint64_t seed = 0;
    int next_id = 0;
    std::vector<std::pair<int, TimeNs>> log;

    void spawn(TimeNs t) {
        const int id = next_id++;
        sim.schedule_at(t, [this, id] { fire(id); });
    }
    void fire(int id) {
        log.emplace_back(id, sim.now());
        std::mt19937_64 rng(seed * 1000003 + static_cast<std::uint64_t>(id));
        if (rng() % 40 == 0) sim.stop();
        if (next_id > 40000) return;
        for (auto k = rng() % 3; k > 0; --k) spawn(draw_time(rng, sim.now()));
    }
    std::vector<std::pair<int, TimeNs>> run() {
        std::mt19937_64 rng(seed);
        for (int i = 0; i < 64; ++i) spawn(draw_time(rng, 0));
        TimeNs horizon = 0;
        while (sim.events_pending() > 0) {
            horizon += rng() % 2 == 0 ? static_cast<TimeNs>(rng() % kBucketNs)
                                      : static_cast<TimeNs>(rng() % (3 * kRingNs));
            const auto executed = sim.run_until(horizon);
            log.emplace_back(-static_cast<int>(executed) - 1, sim.now());
        }
        return log;
    }
};

TEST(EventQueueDifferential, SimulatorStopAndResumeMatchesOracle) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Process<Simulator> got;
        Process<OracleSimulator> want;
        got.seed = want.seed = seed;
        const auto a = got.run();
        const auto b = want.run();
        ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << "seed " << seed << " entry " << i;
        }
    }
}

// The allocation pin: once a TCP flow on the 4-node line (gs0 -- sat1 --
// sat2 -- gs3) is in steady state, the packet engine's per-hop path,
// device queues and event slab are all recycled.
TEST(EventQueueAllocations, SteadyStateTcpFlowAllocatesAlmostNothing) {
    Simulator sim;
    Network net{sim};
    net.create_nodes(4);
    auto delay = [](int, int, TimeNs) { return TimeNs{4 * kNsPerMs}; };
    for (int n = 0; n < 4; ++n) net.add_gsl(n, 1e7, 100, delay);
    net.add_isl(1, 2, 1e7, 100, delay);
    net.node(0).set_next_hop(3, 1);
    net.node(1).set_next_hop(3, 2);
    net.node(2).set_next_hop(3, 3);
    net.node(3).set_next_hop(0, 2);
    net.node(2).set_next_hop(0, 1);
    net.node(1).set_next_hop(0, 0);
    TcpConfig cfg;
    cfg.flow_id = 1;
    cfg.src_node = 0;
    cfg.dst_node = 3;
    TcpFlow flow(net, cfg, make_newreno());
    sim.run_until(5 * kNsPerSec);  // slow start, first losses, pools at peak

    const std::uint64_t events_before = sim.events_executed();
    const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    sim.run_until(25 * kNsPerSec);
    const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    const std::uint64_t events = sim.events_executed() - events_before;
    ASSERT_GT(events, 100000u);
    EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(events), 0.05)
        << allocs << " allocations over " << events << " events";
}

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.push(30, [&] { order.push_back(3); });
    q.push(10, [&] { order.push_back(1); });
    q.push(20, [&] { order.push_back(2); });
    while (!q.empty()) q.pop()();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) q.push(5, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop()();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ReportsNextTime) {
    EventQueue q;
    q.push(42, [] {});
    EXPECT_EQ(q.next_time(), 42);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.next_time(), std::logic_error);
    q.push(7, [] {});
    q.pop()();
    EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, PopOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(Simulator, ClockAdvancesWithEvents) {
    Simulator sim;
    TimeNs seen = -1;
    sim.schedule_at(100, [&] { seen = sim.now(); });
    sim.run_until(1000);
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, ScheduleInIsRelative) {
    Simulator sim;
    std::vector<TimeNs> times;
    sim.schedule_at(50, [&] {
        times.push_back(sim.now());
        sim.schedule_in(25, [&] { times.push_back(sim.now()); });
    });
    sim.run_until(1000);
    EXPECT_EQ(times, (std::vector<TimeNs>{50, 75}));
}

TEST(Simulator, EventsPastHorizonNotRun) {
    Simulator sim;
    bool ran = false;
    sim.schedule_at(200, [&] { ran = true; });
    sim.run_until(199);
    EXPECT_FALSE(ran);
    sim.run_until(200);
    EXPECT_TRUE(ran);
}

TEST(Simulator, EventAtExactHorizonRuns) {
    Simulator sim;
    bool ran = false;
    sim.schedule_at(300, [&] { ran = true; });
    sim.run_until(300);
    EXPECT_TRUE(ran);
}

TEST(Simulator, RejectsPastScheduling) {
    Simulator sim;
    sim.schedule_at(100, [&] {
        EXPECT_THROW(sim.schedule_at(50, [] {}), std::invalid_argument);
    });
    sim.run_until(200);
    EXPECT_THROW(sim.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, StopHaltsExecution) {
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule_at(i, [&] {
            if (++count == 3) sim.stop();
        });
    }
    sim.run_until(100);
    EXPECT_EQ(count, 3);
}

TEST(Simulator, CountsExecutedEvents) {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
    EXPECT_EQ(sim.run_until(10), 5u);
    EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, StopLeavesClockAtLastEvent) {
    Simulator sim;
    sim.schedule_at(10, [&] { sim.stop(); });
    sim.schedule_at(20, [] {});
    sim.run_until(100);
    // After stop() the clock must stay at the stopped event, not jump to
    // the horizon — otherwise the still-queued t=20 event would be in the
    // clock's past on resume.
    EXPECT_EQ(sim.now(), 10);
    EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(Simulator, ResumeAfterStopRunsRemainingEvents) {
    Simulator sim;
    std::vector<TimeNs> times;
    sim.schedule_at(10, [&] {
        times.push_back(sim.now());
        sim.stop();
    });
    sim.schedule_at(20, [&] { times.push_back(sim.now()); });
    sim.schedule_at(30, [&] { times.push_back(sim.now()); });
    EXPECT_EQ(sim.run_until(100), 1u);
    EXPECT_EQ(sim.run_until(100), 2u);
    EXPECT_EQ(times, (std::vector<TimeNs>{10, 20, 30}));
    EXPECT_EQ(sim.now(), 100);
    EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, EventsExecutedAccumulatesAcrossRuns) {
    Simulator sim;
    for (int i = 1; i <= 6; ++i) sim.schedule_at(i * 10, [] {});
    EXPECT_EQ(sim.run_until(30), 3u);   // per-call count
    EXPECT_EQ(sim.events_executed(), 3u);
    EXPECT_EQ(sim.run_until(60), 3u);
    EXPECT_EQ(sim.events_executed(), 6u);  // lifetime count accumulates
}

}  // namespace
}  // namespace hypatia::sim
