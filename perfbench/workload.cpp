// perfbench_workload: runs one benchmark workload in this process through
// the library's public entry points, times every epoch from outside,
// checks and digests the outputs, and writes one JSON result file.
// perfbench/run.py builds this binary, launches it once per measurement
// and turns the result files into the benchmark's metrics.
//
//   perfbench_workload --workload gen2_sweep|s1_flowsim|k1_packets
//                      --seed N --lanes L --epochs E --warmup W
//                      --setups K --trace 0|1 --out result.json
//
// Each workload is set up K times (constructors plus W untimed warm-up
// epochs; the last set-up is kept), then runs E timed epochs in a closed
// loop: the next epoch starts when the previous one returns. The run
// length is fixed in epochs, so every work count repeats exactly for a
// given (seed, E). With --trace 1 the binary also records spans around
// the public calls into each layer, in memory, and writes them out with
// the result.
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/leo_network.hpp"
#include "src/flowsim/engine.hpp"
#include "src/flowsim/traffic.hpp"
#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/orbit/sgp4_batch.hpp"
#include "src/routing/forwarding.hpp"
#include "src/routing/pair_sweep.hpp"
#include "src/routing/path_analysis.hpp"
#include "src/routing/shortest_path.hpp"
#include "src/routing/snapshot_refresh.hpp"
#include "src/topology/cities.hpp"
#include "src/topology/constellation.hpp"
#include "src/topology/shell_group.hpp"
#include "src/util/thread_pool.hpp"

// --- allocation counter ------------------------------------------------
// Every operator new in this binary (library code included) bumps one
// relaxed atomic; the workloads read it around their timed epochs.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
        throw std::bad_alloc();
    }
    return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace hypatia;
namespace json = obs::json;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

using Clock = std::chrono::steady_clock;
const Clock::time_point g_process_start = Clock::now();

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                g_process_start)
        .count();
}

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
    return static_cast<double>(b_ns - a_ns) / 1e6;
}

struct Options {
    std::string workload;
    unsigned seed = 1;
    int lanes = 2;
    int epochs = 200;
    int warmup = 5;
    int setups = 3;
    bool trace = false;
    std::string out;
};

// --- spans ---------------------------------------------------------------

/// In-memory span log of the traced run: name, parent span (-1 for a
/// root) and start/end offsets from process start. When tracing is off,
/// open() and close() are a single branch.
class SpanLog {
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {
        if (enabled_) spans_.reserve(1 << 14);
    }

    int open(const char* name, int parent = -1) {
        if (!enabled_) return -1;
        spans_.push_back({name, parent, now_ns(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }
    /// A span that starts at an earlier instant (epochs delimited by
    /// callbacks are only known to have started once the next one fires).
    void add(const char* name, int parent, std::int64_t start_ns, std::int64_t end_ns) {
        if (enabled_) spans_.push_back({name, parent, start_ns, end_ns});
    }
    void close(int id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    }

    /// Mean duration (ms) of the spans named `name`; 0 when none.
    double mean_ms(const char* name) const {
        double total = 0.0;
        std::size_t n = 0;
        for (const auto& s : spans_) {
            if (std::strcmp(s.name, name) == 0) {
                total += ms_between(s.start_ns, s.end_ns);
                ++n;
            }
        }
        return n == 0 ? 0.0 : total / static_cast<double>(n);
    }

    /// Every span plus, per name, its count, total and self time (the
    /// duration minus the part its child spans cover).
    json::Value to_json() const {
        std::vector<std::int64_t> child_ns(spans_.size(), 0);
        for (const auto& s : spans_) {
            if (s.parent >= 0) {
                child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
            }
        }
        json::Array list;
        std::map<std::string, std::array<double, 3>> by_name;  // count, total, self
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            list.push_back(json::Array{json::Value(s.name), json::Value(s.parent),
                                       json::Value(s.start_ns), json::Value(s.end_ns)});
            auto& agg = by_name[s.name];
            agg[0] += 1.0;
            agg[1] += ms_between(s.start_ns, s.end_ns);
            agg[2] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
        }
        json::Object summary;
        for (const auto& [name, agg] : by_name) {
            summary[name] = json::Object{{"count", agg[0]},
                                         {"total_ms", agg[1]},
                                         {"self_ms", agg[2]}};
        }
        return json::Object{{"spans", list}, {"by_name", summary}};
    }

  private:
    struct Span {
        const char* name;
        int parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };
    bool enabled_;
    std::vector<Span> spans_;
};

class ScopedSpan {
  public:
    ScopedSpan(SpanLog& log, const char* name, int parent = -1)
        : log_(log), id_(log.open(name, parent)) {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog& log_;
    int id_;
};

// --- work counts and profile scopes ---------------------------------------

/// The deterministic work counters the program exports, plus this
/// binary's allocation count. Read at the edges of the timed window.
struct WorkCounts {
    std::uint64_t sgp4_fills = 0;
    std::uint64_t sgp4_hits = 0;
    std::uint64_t pops = 0;
    std::uint64_t settled = 0;
    std::uint64_t rows_patched = 0;
    std::uint64_t solver_rounds = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t allocs = 0;

    static WorkCounts read() {
        auto& m = obs::metrics();
        WorkCounts w;
        w.sgp4_fills = m.counter("propagation.sgp4_cache_fills").value();
        w.sgp4_hits = m.counter("orbit.sgp4_cache_hits").value();
        w.pops = m.counter("route.dijkstra_pops").value() +
                 m.counter("route.astar_pops").value();
        w.settled = m.counter("route.dijkstra_settled").value() +
                    m.counter("route.astar_settled").value();
        w.rows_patched = m.counter("route.gsl_rows_patched").value();
        w.solver_rounds = m.counter("flowsim.solver_rounds").value();
        w.tx_packets = m.counter("net.tx_packets").value();
        w.retransmissions = m.counter("tcp.retransmissions").value();
        w.allocs = g_allocs.load(std::memory_order_relaxed);
        return w;
    }

    WorkCounts operator-(const WorkCounts& o) const {
        WorkCounts d;
        d.sgp4_fills = sgp4_fills - o.sgp4_fills;
        d.sgp4_hits = sgp4_hits - o.sgp4_hits;
        d.pops = pops - o.pops;
        d.settled = settled - o.settled;
        d.rows_patched = rows_patched - o.rows_patched;
        d.solver_rounds = solver_rounds - o.solver_rounds;
        d.tx_packets = tx_packets - o.tx_packets;
        d.retransmissions = retransmissions - o.retransmissions;
        d.allocs = allocs - o.allocs;
        return d;
    }

    json::Value to_json() const {
        return json::Object{{"sgp4_fills", sgp4_fills},
                            {"sgp4_cache_hits", sgp4_hits},
                            {"pops", pops},
                            {"settled", settled},
                            {"gsl_rows_patched", rows_patched},
                            {"solver_rounds", solver_rounds},
                            {"tx_packets", tx_packets},
                            {"retransmissions", retransmissions},
                            {"allocs", allocs}};
    }
};

using ProfileMap = std::map<std::string, obs::Profiler::PhaseStats, std::less<>>;

ProfileMap profile_delta(const ProfileMap& before, const ProfileMap& after) {
    ProfileMap d;
    for (const auto& [name, a] : after) {
        obs::Profiler::PhaseStats s = a;
        if (const auto it = before.find(name); it != before.end()) {
            s.calls -= it->second.calls;
            s.total_ns -= it->second.total_ns;
            s.self_ns -= it->second.self_ns;
        }
        if (s.calls > 0) d[name] = s;
    }
    return d;
}

/// Scopes recorded inside thread-pool workers: their totals sum thread
/// time across lanes, so they can exceed the wall clock.
bool scope_sums_threads(const std::string& name) {
    return name == "routing.dijkstra" || name == "routing.astar" ||
           name == "propagation.sgp4";
}

double scope_ms(const ProfileMap& p, const char* name, bool self = false) {
    const auto it = p.find(name);
    if (it == p.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) / 1e6;
}

// --- digest ---------------------------------------------------------------

/// FNV-1a over the raw bytes of the folded outputs (doubles bit-exact).
class Digest {
  public:
    template <typename T>
    void add(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 1099511628211ull;
        }
    }
    std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

// --- one workload run ----------------------------------------------------

struct Run {
    std::vector<double> setup_s;
    std::vector<double> epoch_ms;
    double epoch_s = 0.0;  // simulated seconds per epoch
    std::uint64_t failed_epochs = 0;
    std::vector<std::string> problems;
    Digest digest;
    WorkCounts work;      // deltas over the timed epochs
    ProfileMap profile;   // deltas over the timed epochs
    json::Object layers;  // per-layer values specific to the workload

    void problem(const std::string& what) {
        if (problems.size() < 10) problems.push_back(what);
    }
    void layer(const char* name, double value, const char* unit, const char* kind) {
        layers[name] = json::Object{{"value", value}, {"unit", unit}, {"kind", kind}};
    }
};

// gen2_sweep: Starlink Gen2 (9 shells, 29,988 satellites) as one
// ShellGroup, the top-100 cities, 16 seeded pairs, 100 ms epochs through
// PairSweeper::step. Traced epochs call ShellGroup::warm_caches and a
// SnapshotRefresher of the benchmark's own at the same t before the step,
// so the step's own refresh finds the SGP4 cache warm and
// fanout = step - refresh.
void run_gen2(const Options& o, SpanLog& spans, Run& run) {
    const TimeNs step = 100 * kNsPerMs;
    run.epoch_s = 0.1;
    const auto cities = topo::top100_cities();
    const auto num_gs = static_cast<std::uint64_t>(cities.size());
    // 16 distinct destinations, so every seed fans out 16 trees.
    std::mt19937_64 rng(o.seed);
    std::vector<int> order(cities.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<route::GsPair> pairs;
    for (std::size_t i = 0; i < 16; ++i) {
        std::swap(order[i], order[i + rng() % (num_gs - i)]);
        int src = static_cast<int>(rng() % (num_gs - 1));
        if (src >= order[i]) ++src;
        pairs.push_back({src, order[i]});
    }

    std::unique_ptr<topo::ShellGroup> group;
    std::unique_ptr<route::PairSweeper> sweeper;
    for (int rep = 0; rep < o.setups; ++rep) {
        sweeper.reset();
        group.reset();
        ScopedSpan span(spans, "setup");
        const std::int64_t t0 = now_ns();
        group = std::make_unique<topo::ShellGroup>(topo::constellation_shells("starlink_gen2"),
                                                   topo::default_epoch());
        sweeper = std::make_unique<route::PairSweeper>(*group, cities, pairs);
        for (int e = 0; e < o.warmup; ++e) sweeper->step(e * step);
        run.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    }

    std::optional<route::SnapshotRefresher> refresher;
    if (o.trace) {
        refresher.emplace(*group, cities);
        refresher->refresh((o.warmup - 1) * step);
    }

    const int num_sats = group->num_satellites();
    const WorkCounts w0 = WorkCounts::read();
    const ProfileMap p0 = obs::profiler().snapshot();
    for (int e = 0; e < o.epochs; ++e) {
        const TimeNs t = (o.warmup + e) * step;
        const std::int64_t a = now_ns();
        const int epoch_span = spans.open("epoch");
        if (o.trace) {
            {
                ScopedSpan s(spans, "orbit.warm", epoch_span);
                group->warm_caches(t);
            }
            ScopedSpan s(spans, "routing.refresh", epoch_span);
            refresher->refresh(t);
        }
        const std::vector<route::PairSweeper::Sample>* samples = nullptr;
        {
            ScopedSpan s(spans, "routing.step", epoch_span);
            samples = &sweeper->step(t);
        }
        spans.close(epoch_span);
        run.epoch_ms.push_back(ms_between(a, now_ns()));

        // Untimed: digest and check every pair's RTT and path.
        const auto position = [&](int node) -> Vec3 {
            return node < num_sats ? group->position_ecef(node, t)
                                   : cities[static_cast<std::size_t>(node - num_sats)].ecef();
        };
        bool ok = true;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            const auto& sample = (*samples)[i];
            run.digest.add(sample.rtt_s);
            run.digest.add(sample.path.size());
            for (const int node : sample.path) run.digest.add(node);
            const int src = sweeper->gs_node(pairs[i].src_gs);
            const int dst = sweeper->gs_node(pairs[i].dst_gs);
            if (!sample.reachable() || sample.path.size() < 3 ||
                sample.path.front() != src || sample.path.back() != dst) {
                ok = false;
                run.problem("gen2: pair " + std::to_string(i) + " has no valid path at epoch " +
                            std::to_string(e));
                continue;
            }
            // The RTT must equal the light time over the path's hops,
            // recomputed from the node positions.
            double km = 0.0;
            for (std::size_t h = 0; h + 1 < sample.path.size(); ++h) {
                km += position(sample.path[h]).distance_to(position(sample.path[h + 1]));
            }
            const double expected = 2.0 * km / orbit::kSpeedOfLightKmPerS;
            if (!(std::abs(sample.rtt_s - expected) <= 1e-9 * expected)) {
                ok = false;
                run.problem("gen2: pair " + std::to_string(i) + " RTT " +
                            std::to_string(sample.rtt_s) + " s != path length " +
                            std::to_string(expected) + " s at epoch " + std::to_string(e));
            }
        }
        if (!ok) ++run.failed_epochs;
    }
    run.work = WorkCounts::read() - w0;
    run.profile = profile_delta(p0, obs::profiler().snapshot());

    if (o.trace) {
        const double refresh_ms = spans.mean_ms("routing.refresh");
        run.layer("orbit.warm_ms", spans.mean_ms("orbit.warm"), "ms", "span");
        run.layer("routing.refresh_ms", refresh_ms, "ms", "span");
        run.layer("routing.fanout_ms", spans.mean_ms("routing.step") - refresh_ms, "ms",
                  "derived: step span - refresh span");
    }
}

// s1_flowsim: flowsim::Engine on Starlink S1 with the top-100 cities,
// 100k seeded gravity-model long-running flows, 1 s epochs. Epochs are
// delimited by epoch_hook calls.
void run_s1(const Options& o, SpanLog& spans, Run& run) {
    run.epoch_s = 1.0;
    const core::Scenario scenario = core::Scenario::paper_default("starlink_s1");
    flowsim::GravityTrafficConfig traffic;
    traffic.num_gs = static_cast<int>(scenario.ground_stations.size());
    traffic.num_flows = 100'000;
    traffic.seed = o.seed;
    const flowsim::TrafficMatrix matrix = flowsim::gravity_traffic(traffic);
    const auto warmup = static_cast<std::size_t>(o.warmup);

    // Set-ups that are not kept stop after the warm-up epochs.
    for (int rep = 0; rep + 1 < o.setups; ++rep) {
        ScopedSpan span(spans, "setup");
        const std::int64_t t0 = now_ns();
        flowsim::EngineOptions opts;
        opts.epoch = kNsPerSec;
        opts.duration = static_cast<TimeNs>(o.warmup) * kNsPerSec;
        flowsim::Engine engine(scenario, matrix, opts);
        engine.run();
        run.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    }

    const int setup_span = spans.open("setup");
    const std::int64_t t0 = now_ns();
    std::int64_t last = 0;
    WorkCounts w0;
    ProfileMap p0;
    int run_span = -1;
    flowsim::EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = static_cast<TimeNs>(o.warmup + o.epochs) * kNsPerSec;
    opts.epoch_hook = [&](std::size_t bi, TimeNs) {
        const std::int64_t now = now_ns();
        if (bi + 1 == warmup) {
            run.setup_s.push_back(ms_between(t0, now) / 1e3);
            spans.close(setup_span);
            w0 = WorkCounts::read();
            p0 = obs::profiler().snapshot();
        } else if (bi >= warmup) {
            run.epoch_ms.push_back(ms_between(last, now));
            spans.add("flowsim.epoch", run_span, last, now);
        }
        last = now_ns();
        return true;
    };
    flowsim::Engine engine(scenario, matrix, opts);
    run_span = spans.open("flowsim.run");
    const flowsim::RunSummary summary = engine.run();
    spans.close(run_span);
    run.work = WorkCounts::read() - w0;
    run.profile = profile_delta(p0, obs::profiler().snapshot());

    // Outputs: per-flow bits sent and completion time.
    bool ok = summary.all_converged &&
              summary.epochs.size() == static_cast<std::size_t>(o.warmup + o.epochs);
    if (!ok) run.problem("s1: solver did not converge or epochs are missing");
    const double max_bits = scenario.gsl_rate_bps * static_cast<double>(o.warmup + o.epochs);
    double total_bits = 0.0;
    for (const auto& f : summary.flows) {
        run.digest.add(f.bits_sent);
        run.digest.add(f.completion);
        total_bits += f.bits_sent;
        if (!(f.bits_sent >= 0.0 && f.bits_sent <= max_bits * (1.0 + 1e-9)) ||
            f.completion != -1) {
            ok = false;
            run.problem("s1: flow outcome out of range (bits " + std::to_string(f.bits_sent) +
                        ", completion " + std::to_string(f.completion) + ")");
        }
    }
    if (!(total_bits > 0.0)) {
        ok = false;
        run.problem("s1: no traffic delivered");
    }
    if (!ok) run.failed_epochs = run.epoch_ms.size();

    const double epochs = static_cast<double>(o.epochs);
    run.layer("flowsim.epoch_ms", spans.mean_ms("flowsim.epoch"), "ms", "span");
    for (const char* scope : {"flowsim.snapshot", "flowsim.forwarding", "flowsim.paths",
                              "flowsim.solve", "flowsim.advance"}) {
        run.layer((std::string(scope) + "_ms").c_str(), scope_ms(run.profile, scope) / epochs,
                  "ms", "profile scope, calling thread, inclusive");
    }
}

// k1_packets: core::LeoNetwork on Kuiper K1 with the top-100 cities, four
// seeded random permutations (400 long-running TCP NewReno flows, four
// out of and into every ground station) at the paper's 10 Mbit/s line
// rate, fstate installs every 100 ms. Four permutations rather than one
// keep the event count within a few percent across seeds. An epoch is
// one fstate interval, delimited by on_fstate_update.
void run_k1(const Options& o, SpanLog& spans, Run& run) {
    const TimeNs interval = 100 * kNsPerMs;
    run.epoch_s = 0.1;
    core::Scenario scenario = core::Scenario::paper_default("kuiper_k1");
    scenario.isl_rate_bps = 10e6;
    scenario.gsl_rate_bps = 10e6;
    std::vector<route::GsPair> pairs;
    for (unsigned k = 0; k < 4; ++k) {
        const auto perm = route::random_permutation_pairs(
            static_cast<int>(scenario.ground_stations.size()), 4 * o.seed + k);
        pairs.insert(pairs.end(), perm.begin(), perm.end());
    }
    const auto warmup = static_cast<std::size_t>(o.warmup);

    for (int rep = 0; rep + 1 < o.setups; ++rep) {
        ScopedSpan span(spans, "setup");
        const std::int64_t t0 = now_ns();
        core::LeoNetwork leo(scenario);
        auto flows = core::attach_tcp_flows(leo, pairs, "newreno", {}, 1 * kNsPerMs);
        leo.run(static_cast<TimeNs>(o.warmup) * interval - 1);
        run.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    }

    const int setup_span = spans.open("setup");
    const std::int64_t t0 = now_ns();
    core::LeoNetwork leo(scenario);
    auto flows = core::attach_tcp_flows(leo, pairs, "newreno", {}, 1 * kNsPerMs);
    obs::metrics().gauge("sim.event_queue_peak").reset();

    std::vector<std::int64_t> boundary_ns;  // install i at sim time i * interval
    boundary_ns.reserve(static_cast<std::size_t>(o.warmup + o.epochs) + 1);
    std::uint64_t events_at_start = 0;
    WorkCounts w0;
    ProfileMap p0;
    leo.on_fstate_update = [&](TimeNs) {
        boundary_ns.push_back(now_ns());
        if (boundary_ns.size() == warmup + 1) {
            run.setup_s.push_back(ms_between(t0, boundary_ns.back()) / 1e3);
            spans.close(setup_span);
            events_at_start = leo.simulator().events_executed();
            w0 = WorkCounts::read();
            p0 = obs::profiler().snapshot();
        }
    };
    const ProfileMap p_run0 = obs::profiler().snapshot();
    const int run_span = spans.open("core.run");
    leo.run(static_cast<TimeNs>(o.warmup + o.epochs) * interval - 1);
    boundary_ns.push_back(now_ns());
    spans.close(run_span);
    const std::uint64_t events = leo.simulator().events_executed() - events_at_start;
    run.work = WorkCounts::read() - w0;
    run.profile = profile_delta(p0, obs::profiler().snapshot());
    const ProfileMap whole_run = profile_delta(p_run0, obs::profiler().snapshot());

    for (std::size_t i = warmup; i + 1 < boundary_ns.size(); ++i) {
        run.epoch_ms.push_back(ms_between(boundary_ns[i], boundary_ns[i + 1]));
        spans.add("sim.epoch", run_span, boundary_ns[i], boundary_ns[i + 1]);
    }

    // Outputs: events executed, goodput, bytes delivered per flow.
    const double sim_s = static_cast<double>(o.warmup + o.epochs) * run.epoch_s;
    bool ok = run.epoch_ms.size() == static_cast<std::size_t>(o.epochs) && events > 0;
    if (!ok) run.problem("k1: epochs missing or no events executed");
    std::uint64_t total_bytes = 0;
    run.digest.add(leo.simulator().events_executed());
    for (const auto& f : flows) {
        const std::uint64_t bytes = f->delivered_bytes();
        run.digest.add(bytes);
        total_bytes += bytes;
        if (bytes == 0 || static_cast<double>(bytes) * 8.0 > scenario.gsl_rate_bps * sim_s) {
            ok = false;
            run.problem("k1: flow delivered " + std::to_string(bytes) + " bytes");
        }
    }
    const double goodput_bps = static_cast<double>(total_bytes) * 8.0 / sim_s;
    run.digest.add(goodput_bps);
    if (!ok) run.failed_epochs = run.epoch_ms.size();

    const double timed_ms = ms_between(boundary_ns[warmup], boundary_ns.back());
    const double all_epochs = static_cast<double>(o.warmup + o.epochs);
    run.layer("sim.events_executed", static_cast<double>(events), "count", "work count");
    run.layer("sim.ns_per_event", timed_ms * 1e6 / static_cast<double>(events), "ns",
              "timed wall / events");
    run.layer("sim.allocs_per_event",
              static_cast<double>(run.work.allocs) / static_cast<double>(events), "count",
              "work count");
    run.layer("sim.event_queue_peak", obs::metrics().gauge("sim.event_queue_peak").value(),
              "count", "work count");
    run.layer("sim.event_loop_ms", scope_ms(whole_run, "sim.event_loop", true) / all_epochs,
              "ms", "profile scope self time per epoch, whole run incl. warm-up");
    run.layer("routing.fstate_install_ms",
              scope_ms(run.profile, "routing.fstate_install") / static_cast<double>(o.epochs),
              "ms", "profile scope, calling thread, inclusive");
    run.layer("net.tx_packets", static_cast<double>(run.work.tx_packets), "count",
              "work count");
    run.layer("tcp.retransmissions", static_cast<double>(run.work.retransmissions), "count",
              "work count");
    run.layer("net.goodput_mbps", goodput_bps / 1e6, "Mbit/s", "output");
}

const char* route_algo_name(route::RouteAlgo a) {
    return a == route::RouteAlgo::kAstar ? "astar" : "dijkstra";
}

/// Refuses knobs that would change what the benchmark measures: every
/// HYPATIA_* variable except the pool size must be unset.
bool environment_clean(std::string* offender) {
    for (char** e = ::environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("HYPATIA_", 0) == 0 && kv.rfind("HYPATIA_THREADS=", 0) != 0) {
            *offender = kv.substr(0, kv.find('='));
            return false;
        }
    }
    return true;
}

bool parse(int argc, char** argv, Options& o) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") o.workload = val;
        else if (key == "--seed") o.seed = static_cast<unsigned>(std::stoul(val));
        else if (key == "--lanes") o.lanes = std::stoi(val);
        else if (key == "--epochs") o.epochs = std::stoi(val);
        else if (key == "--warmup") o.warmup = std::stoi(val);
        else if (key == "--setups") o.setups = std::stoi(val);
        else if (key == "--trace") o.trace = val == "1";
        else if (key == "--out") o.out = val;
        else return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && !o.out.empty() && o.lanes >= 1 &&
           o.epochs >= 1 && o.warmup >= 1 && o.setups >= 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    try {
        if (!parse(argc, argv, o)) throw std::invalid_argument("bad arguments");
    } catch (const std::exception&) {
        std::fprintf(stderr,
                     "usage: perfbench_workload --workload NAME --seed N --lanes L "
                     "--epochs E --warmup W --setups K --trace 0|1 --out FILE\n");
        return 2;
    }
    if (kAssertsOn || kSanitized || std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
        std::fprintf(stderr, "perfbench_workload: refusing to measure a %s build%s\n",
                     PERFBENCH_BUILD_TYPE, kSanitized ? " with sanitizers" : "");
        return 3;
    }
    std::string offender;
    if (!environment_clean(&offender)) {
        std::fprintf(stderr, "perfbench_workload: %s is set; the benchmark runs defaults\n",
                     offender.c_str());
        return 3;
    }
    util::ThreadPool::set_global_threads(static_cast<std::size_t>(o.lanes));

    SpanLog spans(o.trace);
    Run run;
    try {
        if (o.workload == "gen2_sweep") run_gen2(o, spans, run);
        else if (o.workload == "s1_flowsim") run_s1(o, spans, run);
        else if (o.workload == "k1_packets") run_k1(o, spans, run);
        else throw std::invalid_argument("unknown workload " + o.workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
        return 1;
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    // Work counts per timed epoch, on every workload.
    const double epochs = static_cast<double>(o.epochs);
    const WorkCounts& w = run.work;
    run.layer("orbit.sgp4_fills_per_epoch", static_cast<double>(w.sgp4_fills) / epochs, "count",
              "work count");
    run.layer("orbit.sgp4_cache_hits_per_epoch", static_cast<double>(w.sgp4_hits) / epochs,
              "count", "work count");
    run.layer("routing.gsl_rows_patched_per_epoch", static_cast<double>(w.rows_patched) / epochs,
              "count", "work count");
    run.layer("routing.pops_per_epoch", static_cast<double>(w.pops) / epochs, "count",
              "work count");
    run.layer("routing.settled_per_epoch", static_cast<double>(w.settled) / epochs, "count",
              "work count");
    run.layer("routing.allocs_per_epoch", static_cast<double>(w.allocs) / epochs, "count",
              "work count");
    run.layer("flowsim.solver_rounds_per_epoch", static_cast<double>(w.solver_rounds) / epochs,
              "count", "work count");

    json::Object profile;
    for (const auto& [name, s] : run.profile) {
        profile[name] = json::Object{
            {"calls", s.calls},
            {"total_ms", static_cast<double>(s.total_ns) / 1e6},
            {"self_ms", static_cast<double>(s.self_ns) / 1e6},
            {"time", scope_sums_threads(name) ? "thread-summed" : "calling thread"}};
    }
    json::Array setup_s(run.setup_s.begin(), run.setup_s.end());
    json::Array epoch_ms(run.epoch_ms.begin(), run.epoch_ms.end());
    json::Array problems(run.problems.begin(), run.problems.end());
    const json::Value result = json::Object{
        {"workload", o.workload},
        {"seed", static_cast<double>(o.seed)},
        {"epochs", o.epochs},
        {"warmup", o.warmup},
        {"trace", o.trace},
        {"epoch_s", run.epoch_s},
        {"setup_s", setup_s},
        {"epoch_ms", epoch_ms},
        {"failed_epochs", run.failed_epochs},
        {"problems", problems},
        {"digest", run.digest.hex()},
        {"peak_rss_kb", static_cast<double>(usage.ru_maxrss)},
        {"work", w.to_json()},
        {"layers", run.layers},
        {"profile", profile},
        {"trace_spans", o.trace ? spans.to_json() : json::Value()},
        {"config",
         json::Object{
             {"lanes", static_cast<double>(util::ThreadPool::global().num_threads())},
             {"route_algo", route_algo_name(route::route_algo_from_env())},
             {"sgp4_kernel", orbit::sgp4_kernel_name(orbit::sgp4_kernel_from_env())},
             {"snapshot_mode", route::snapshot_mode_from_env() == route::SnapshotMode::kRefresh
                                   ? "refresh"
                                   : "rebuild"},
             {"dest_cluster_km", route::dest_cluster_km_from_env()},
             {"faults", std::getenv("HYPATIA_FAULTS") != nullptr ? "env" : "none"},
             {"build_type", PERFBENCH_BUILD_TYPE},
             {"compiler", __VERSION__},
         }},
    };
    std::ofstream out(o.out);
    out << result.dump() << "\n";
    if (!out) {
        std::fprintf(stderr, "perfbench_workload: cannot write %s\n", o.out.c_str());
        return 1;
    }
    return 0;
}
