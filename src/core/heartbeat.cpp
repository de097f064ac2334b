#include "src/core/heartbeat.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

namespace hypatia::core {

namespace {

std::int64_t wall_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// One heartbeat chain. Each pending beat event holds the only reference
// to the next one's state, so the chain frees itself once it stops
// re-scheduling (or when the simulator drops its pending events).
struct Heartbeat {
    sim::Simulator& sim;
    TimeNs horizon;
    TimeNs interval;
    std::int64_t wall_start_ns = 0;
    std::int64_t wall_prev_ns = 0;
    std::uint64_t events_prev = 0;

    static void beat(const std::shared_ptr<Heartbeat>& self) {
        Heartbeat& h = *self;
        const std::int64_t wall = wall_now_ns();
        const std::uint64_t events = h.sim.events_executed();
        const double beat_wall_s = static_cast<double>(wall - h.wall_prev_ns) / 1e9;
        const double rate_mevs =
            beat_wall_s > 0.0
                ? static_cast<double>(events - h.events_prev) / beat_wall_s / 1e6
                : 0.0;
        const TimeNs t = h.sim.now();
        const double frac = static_cast<double>(t) / static_cast<double>(h.horizon);
        // ETA extrapolates total wall time from the sim-time fraction done.
        const double elapsed_s = static_cast<double>(wall - h.wall_start_ns) / 1e9;
        const double eta_s = frac > 0.0 ? elapsed_s * (1.0 - frac) / frac : 0.0;
        std::fprintf(stderr,
                     "[hypatia] t=%.1fs/%.1fs (%.1f%%) events=%llu "
                     "rate=%.2f Mev/s eta=%.0fs\n",
                     ns_to_seconds(t), ns_to_seconds(h.horizon), frac * 100.0,
                     static_cast<unsigned long long>(events), rate_mevs, eta_s);
        h.wall_prev_ns = wall;
        h.events_prev = events;
        const TimeNs next = t + h.interval;
        if (next <= h.horizon) h.sim.schedule_at(next, [self] { beat(self); });
    }
};

}  // namespace

bool heartbeat_enabled_from_env() {
    const char* v = std::getenv("HYPATIA_PROGRESS");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

TimeNs heartbeat_interval_from_env() {
    const char* v = std::getenv("HYPATIA_PROGRESS_INTERVAL_MS");
    if (v == nullptr) return kNsPerSec;
    const long ms = std::strtol(v, nullptr, 10);
    if (ms <= 0) return kNsPerSec;
    return static_cast<TimeNs>(ms) * kNsPerMs;
}

void attach_heartbeat(sim::Simulator& sim, TimeNs horizon, TimeNs interval) {
    if (interval <= 0 || horizon <= 0) return;
    auto hb = std::make_shared<Heartbeat>(Heartbeat{sim, horizon, interval});
    hb->wall_start_ns = wall_now_ns();
    hb->wall_prev_ns = hb->wall_start_ns;
    const TimeNs first = interval <= horizon ? interval : horizon;
    sim.schedule_at(first, [hb] { Heartbeat::beat(hb); });
}

}  // namespace hypatia::core
