// Flow-level engine: max-min solver correctness (single/shared/disjoint
// bottlenecks, caps, the max-min optimality property), deterministic
// traffic generation, and the epoch-stepped engine over a real
// constellation (completions, capacity changes, utilization export).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/flowsim/engine.hpp"
#include "src/flowsim/solver.hpp"
#include "src/flowsim/traffic.hpp"
#include "src/obs/observability.hpp"
#include "src/topology/cities.hpp"
#include "src/viz/utilization_export.hpp"

namespace hypatia::flowsim {
namespace {

// ---------------------------------------------------------------- solver

TEST(MaxMinSolver, SingleBottleneckSplitsEvenly) {
    FairShareProblem p;
    p.capacity_bps = {10.0};
    p.add_flow({0});
    p.add_flow({0});
    const auto r = solve_max_min(p);
    ASSERT_EQ(r.rate_bps.size(), 2u);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 5.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 5.0);
}

TEST(MaxMinSolver, SharedBottleneckFairness) {
    // Classic example: link 0 cap 30, link 1 cap 10. Flow A crosses only
    // link 0; flows B, C cross both. B and C freeze at 5 (link 1); A then
    // fills link 0's remaining headroom: 30 - 10 = 20.
    FairShareProblem p;
    p.capacity_bps = {30.0, 10.0};
    p.add_flow({0});
    p.add_flow({0, 1});
    p.add_flow({0, 1});
    const auto r = solve_max_min(p);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 5.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[2], 5.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 20.0);
    EXPECT_TRUE(allocation_feasible(p, r.rate_bps));
}

TEST(MaxMinSolver, DisjointPathsGetFullCapacity) {
    FairShareProblem p;
    p.capacity_bps = {4.0, 7.0};
    p.add_flow({0});
    p.add_flow({1});
    const auto r = solve_max_min(p);
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 4.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 7.0);
}

TEST(MaxMinSolver, RateCapBindsBelowFairShare) {
    FairShareProblem p;
    p.capacity_bps = {10.0};
    p.add_flow({0}, /*cap=*/2.0);
    p.add_flow({0});
    const auto r = solve_max_min(p);
    // The capped flow stops at 2; the other takes the released headroom.
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 2.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 8.0);
}

TEST(MaxMinSolver, CapAboveFairShareIsInert) {
    FairShareProblem p;
    p.capacity_bps = {10.0};
    p.add_flow({0}, /*cap=*/100.0);
    p.add_flow({0});
    const auto r = solve_max_min(p);
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 5.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 5.0);
}

TEST(MaxMinSolver, EmptyPathLimitedByCapOnly) {
    FairShareProblem p;
    p.capacity_bps = {10.0};
    p.add_flow({}, /*cap=*/3.0);
    p.add_flow({0});
    const auto r = solve_max_min(p);
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 3.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 10.0);
}

TEST(MaxMinSolver, ZeroCapacityLinkZeroesItsFlows) {
    FairShareProblem p;
    p.capacity_bps = {0.0, 10.0};
    p.add_flow({0, 1});
    p.add_flow({1});
    const auto r = solve_max_min(p);
    EXPECT_DOUBLE_EQ(r.rate_bps[0], 0.0);
    EXPECT_DOUBLE_EQ(r.rate_bps[1], 10.0);
}

// The max-min characterization: an allocation is max-min fair iff every
// flow either sits at its rate cap or crosses a saturated link on which
// it has the maximal rate. (Then no flow can be increased without
// decreasing a flow whose rate is no larger.)
void expect_max_min_fair(const FairShareProblem& p, const FairShareResult& r) {
    ASSERT_TRUE(r.converged);
    ASSERT_TRUE(allocation_feasible(p, r.rate_bps, 1e-7));
    std::vector<double> load(p.capacity_bps.size(), 0.0);
    std::vector<double> max_rate_on(p.capacity_bps.size(), 0.0);
    for (std::size_t f = 0; f < p.num_flows(); ++f) {
        for (const std::uint32_t l : p.links_of(f)) {
            load[l] += r.rate_bps[f];
            max_rate_on[l] = std::max(max_rate_on[l], r.rate_bps[f]);
        }
    }
    for (std::size_t f = 0; f < p.num_flows(); ++f) {
        const double cap = p.rate_cap_bps.empty() ? kNoRateCap : p.rate_cap_bps[f];
        if (cap != kNoRateCap && r.rate_bps[f] >= cap - 1e-7) continue;  // at cap
        bool bottlenecked = false;
        for (const std::uint32_t l : p.links_of(f)) {
            const bool saturated = load[l] >= p.capacity_bps[l] - 1e-6;
            const bool maximal = r.rate_bps[f] >= max_rate_on[l] - 1e-6;
            bottlenecked = bottlenecked || (saturated && maximal);
        }
        EXPECT_TRUE(bottlenecked) << "flow " << f << " rate " << r.rate_bps[f]
                                  << " is not bottlenecked anywhere";
    }
}

TEST(MaxMinSolver, PropertyRandomProblemsAreMaxMinFair) {
    std::mt19937 gen(7);
    for (int instance = 0; instance < 60; ++instance) {
        FairShareProblem p;
        const int num_links = 2 + static_cast<int>(gen() % 12);
        for (int l = 0; l < num_links; ++l) {
            p.capacity_bps.push_back(1.0 + static_cast<double>(gen() % 1000) / 10.0);
        }
        const int num_flows = 1 + static_cast<int>(gen() % 40);
        for (int f = 0; f < num_flows; ++f) {
            std::vector<std::uint32_t> links;
            const int path_len = 1 + static_cast<int>(gen() % 4);
            for (int h = 0; h < path_len; ++h) {
                const auto l = static_cast<std::uint32_t>(gen() % num_links);
                if (std::find(links.begin(), links.end(), l) == links.end()) {
                    links.push_back(l);
                }
            }
            const double cap = (gen() % 3 == 0)
                                   ? 0.5 + static_cast<double>(gen() % 200) / 10.0
                                   : kNoRateCap;
            p.add_flow(links, cap);
        }
        const auto r = solve_max_min(p);
        expect_max_min_fair(p, r);
    }
}

// ------------------------------------------------------------- generators

TEST(Traffic, PoissonIsSeededAndSorted) {
    PoissonTrafficConfig cfg;
    cfg.num_gs = 10;
    cfg.arrivals_per_s = 50.0;
    cfg.window = 10 * kNsPerSec;
    cfg.seed = 3;
    const auto a = poisson_traffic(cfg);
    const auto b = poisson_traffic(cfg);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 100u);  // ~500 expected
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.flows[i].arrival, b.flows[i].arrival);
        EXPECT_EQ(a.flows[i].src_gs, b.flows[i].src_gs);
        EXPECT_NE(a.flows[i].src_gs, a.flows[i].dst_gs);
        EXPECT_GE(a.flows[i].arrival, 0);
        EXPECT_LT(a.flows[i].arrival, cfg.window);
        EXPECT_GT(a.flows[i].size_bits, 0.0);
        if (i > 0) EXPECT_GE(a.flows[i].arrival, a.flows[i - 1].arrival);
    }
    cfg.seed = 4;
    const auto c = poisson_traffic(cfg);
    EXPECT_TRUE(c.size() != a.size() ||
                c.flows.front().arrival != a.flows.front().arrival);
}

TEST(Traffic, GravityFavorsTopRankedCities) {
    GravityTrafficConfig cfg;
    cfg.num_gs = 100;
    cfg.num_flows = 5000;
    cfg.seed = 11;
    const auto m = gravity_traffic(cfg);
    ASSERT_EQ(m.size(), 5000u);
    std::size_t top10 = 0, bottom10 = 0;
    for (const auto& f : m.flows) {
        ASSERT_GE(f.src_gs, 0);
        ASSERT_LT(f.src_gs, 100);
        ASSERT_NE(f.src_gs, f.dst_gs);
        if (f.src_gs < 10) ++top10;
        if (f.src_gs >= 90) ++bottom10;
    }
    // Zipf-ish weights: the 10 most populous cities originate far more
    // flows than the 10 least populous.
    EXPECT_GT(top10, 4 * bottom10);
}

TEST(Traffic, CbrBackgroundCapsEveryFlow) {
    const auto m = cbr_background({{0, 1}, {2, 3}}, 5e6);
    ASSERT_EQ(m.size(), 2u);
    for (const auto& f : m.flows) {
        EXPECT_EQ(f.arrival, 0);
        EXPECT_DOUBLE_EQ(f.rate_cap_bps, 5e6);
        EXPECT_TRUE(std::isinf(f.size_bits));
    }
}

// ---------------------------------------------------------------- engine

core::Scenario small_scenario() {
    core::Scenario s;
    s.shell = topo::shell_by_name("kuiper_k1");
    s.ground_stations = {topo::city_by_name("Manila"), topo::city_by_name("Dalian"),
                         topo::city_by_name("Tokyo"), topo::city_by_name("Seoul")};
    return s;
}

TEST(FlowSimEngine, LongRunningFlowSaturatesBottleneck) {
    auto matrix = cbr_background({{0, 1}}, kNoRateCap);
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 3 * kNsPerSec;
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    ASSERT_EQ(summary.epochs.size(), 3u);
    EXPECT_TRUE(summary.all_converged);
    // A single flow is bottlenecked by one 10 Mbit/s link on its path.
    EXPECT_NEAR(summary.flows[0].last_rate_bps, 10e6, 1.0);
    EXPECT_NEAR(summary.flows[0].bits_sent, 30e6, 10.0);
    EXPECT_EQ(summary.completed, 0u);
}

TEST(FlowSimEngine, FiniteFlowCompletesAtExactFluidTime) {
    TrafficMatrix matrix;
    Flow flow;
    flow.src_gs = 0;
    flow.dst_gs = 1;
    flow.size_bits = 25e6;  // 2.5 s at 10 Mbit/s
    matrix.flows.push_back(flow);
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 5 * kNsPerSec;
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    EXPECT_EQ(summary.completed, 1u);
    EXPECT_NEAR(ns_to_seconds(summary.flows[0].completion), 2.5, 0.01);
    EXPECT_NEAR(summary.flows[0].bits_sent, 25e6, 10.0);
}

TEST(FlowSimEngine, SharedBottleneckSplitsFairlyAndCbrIsCapped) {
    // Two flows Manila -> Dalian: the shared bottleneck halves both;
    // a capped background flow keeps its CBR rate.
    auto matrix = cbr_background({{0, 1}}, kNoRateCap);
    matrix.merge(cbr_background({{0, 1}}, kNoRateCap));
    matrix.merge(cbr_background({{2, 3}}, 1e6));
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 2 * kNsPerSec;
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    int halved = 0, capped = 0;
    for (const auto& outcome : summary.flows) {
        if (std::abs(outcome.last_rate_bps - 5e6) < 1.0) ++halved;
        if (std::abs(outcome.last_rate_bps - 1e6) < 1.0) ++capped;
    }
    EXPECT_EQ(halved, 2);
    EXPECT_EQ(capped, 1);
}

TEST(FlowSimEngine, CapacityChangeAcrossEpochsReallocates) {
    auto matrix = cbr_background({{0, 1}}, kNoRateCap);
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 2 * kNsPerSec;
    opts.tracked_flows = {0};
    // Full capacity in epoch 0, half capacity from epoch 1 on.
    opts.capacity_factor = [](TimeNs t) { return t < kNsPerSec ? 1.0 : 0.5; };
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    ASSERT_EQ(summary.tracked_series.size(), 1u);
    ASSERT_EQ(summary.tracked_series[0].size(), 2u);
    EXPECT_NEAR(summary.tracked_series[0][0].second, 10e6, 1.0);
    EXPECT_NEAR(summary.tracked_series[0][1].second, 5e6, 1.0);
    // No link may exceed its (scaled) capacity in any epoch.
    for (const auto& epoch : summary.epochs) {
        EXPECT_LE(epoch.max_link_utilization, 1.0 + 1e-9);
    }
}

TEST(FlowSimEngine, ResolveOnCompletionReallocatesMidEpoch) {
    // Two flows share a bottleneck; the short one finishes mid-epoch and
    // exact-fluid mode hands its share to the survivor immediately.
    TrafficMatrix matrix;
    Flow short_flow;
    short_flow.src_gs = 0;
    short_flow.dst_gs = 1;
    short_flow.size_bits = 5e6;  // 1 s at the 5 Mbit/s fair share
    matrix.flows.push_back(short_flow);
    matrix.merge(cbr_background({{0, 1}}, kNoRateCap));
    EngineOptions opts;
    opts.epoch = 4 * kNsPerSec;
    opts.duration = 4 * kNsPerSec;
    opts.resolve_on_completion = true;
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    EXPECT_EQ(summary.completed, 1u);
    std::size_t short_id = std::isinf(engine.matrix().flows[0].size_bits) ? 1 : 0;
    const auto& short_outcome = summary.flows[short_id];
    const auto& long_outcome = summary.flows[1 - short_id];
    EXPECT_NEAR(ns_to_seconds(short_outcome.completion), 1.0, 0.01);
    // Survivor: 1 s at 5 Mbit/s + 3 s at 10 Mbit/s = 35 Mbit.
    EXPECT_NEAR(long_outcome.bits_sent, 35e6, 1e3);
}

TEST(FlowSimEngine, DeterministicAcrossRuns) {
    PoissonTrafficConfig cfg;
    cfg.num_gs = 4;
    cfg.arrivals_per_s = 20.0;
    cfg.mean_size_bits = 4e6;
    cfg.window = 3 * kNsPerSec;
    cfg.seed = 5;
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 5 * kNsPerSec;
    const auto run_once = [&] {
        Engine engine(small_scenario(), poisson_traffic(cfg), opts);
        return engine.run();
    };
    const auto a = run_once();
    const auto b = run_once();
    ASSERT_EQ(a.flows.size(), b.flows.size());
    EXPECT_EQ(a.completed, b.completed);
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].completion, b.flows[f].completion);
        EXPECT_DOUBLE_EQ(a.flows[f].bits_sent, b.flows[f].bits_sent);
    }
}

TEST(FlowSimEngine, UtilizationExportFeedsVizPipeline) {
    auto matrix = cbr_background({{0, 1}, {2, 3}}, kNoRateCap);
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = kNsPerSec;
    opts.record_link_utilization = true;
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    ASSERT_EQ(engine.num_recorded_epochs(), 1u);
    ASSERT_FALSE(summary.epochs.empty());
    EXPECT_GT(summary.epochs[0].max_link_utilization, 0.0);
    const auto map = viz::flow_isl_utilization_map(engine, 0);
    EXPECT_FALSE(map.empty());
    for (const auto& iu : map) {
        EXPECT_GT(iu.utilization, 0.0);
        EXPECT_LE(iu.utilization, 1.0 + 1e-9);
        EXPECT_GE(iu.lat_a, -90.0);
        EXPECT_LE(iu.lat_a, 90.0);
    }
    const std::string csv = viz::utilization_to_csv(map);
    EXPECT_NE(csv.find("sat_a,sat_b"), std::string::npos);
}

TEST(FlowSimEngine, MetricsAndOutcomesAreRecorded) {
    auto& m = obs::metrics();
    const auto completed_before = m.counter("flowsim.flows_completed").value();
    const auto epochs_before = m.counter("flowsim.epochs").value();
    TrafficMatrix matrix;
    Flow flow;
    flow.src_gs = 0;
    flow.dst_gs = 1;
    flow.size_bits = 1e6;
    matrix.flows.push_back(flow);
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 2 * kNsPerSec;
    Engine engine(small_scenario(), matrix, opts);
    const auto summary = engine.run();
    EXPECT_EQ(summary.completed, 1u);
    EXPECT_EQ(m.counter("flowsim.flows_completed").value(), completed_before + 1);
    EXPECT_EQ(m.counter("flowsim.epochs").value(), epochs_before + 2);
}

}  // namespace
}  // namespace hypatia::flowsim
