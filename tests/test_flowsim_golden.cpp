// Byte-level goldens for flowsim::Engine runs on paths the repository
// benchmark does not exercise:
//   * finite flows under resolve_on_completion, which rebuilds the
//     epoch problem mid-epoch after every completion;
//   * a fault schedule that severs one ground station, so every flow of
//     its pairs is unreachable (and counted per flow) for a while;
//   * CBR-capped background flows with every flow tracked, the way the
//     emulation exporter drives the engine, plus per-ISL utilization.
// Each run is folded into one FNV-1a digest over the raw bytes of every
// per-flow outcome, per-epoch stat, tracked series and utilization row.
// A change that claims identical engine behaviour must reproduce these
// digests exactly; a change that alters results on purpose must say so
// and re-record them.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/ckpt/codec.hpp"
#include "src/fault/fault.hpp"
#include "src/flowsim/engine.hpp"
#include "src/topology/cities.hpp"

namespace hypatia::flowsim {
namespace {

core::Scenario golden_scenario() {
    core::Scenario s;
    s.shell = topo::shell_by_name("kuiper_k1");
    for (const char* city : {"Manila", "Dalian", "Tokyo", "Seoul", "Shanghai",
                             "Jakarta", "Delhi", "Bangkok"}) {
        s.ground_stations.push_back(topo::city_by_name(city));
    }
    // GSLs faster than ISLs, so bottlenecks form inside the constellation
    // too and a solve takes more than one or two rounds.
    s.gsl_rate_bps = 100e6;
    s.isl_rate_bps = 20e6;
    return s;
}

std::uint64_t summary_digest(const Engine& engine, const RunSummary& s) {
    ckpt::Digest d;
    d.mix<std::uint64_t>(s.epochs.size());
    for (const EpochStats& e : s.epochs) {
        d.mix(e.t);
        d.mix<std::uint64_t>(e.active);
        d.mix<std::uint64_t>(e.arrivals);
        d.mix<std::uint64_t>(e.completions);
        d.mix<std::uint64_t>(e.unreachable);
        d.mix(e.sum_rate_bps);
        d.mix(e.max_link_utilization);
        d.mix(e.solver_rounds);
        d.mix<std::uint8_t>(e.converged ? 1 : 0);
    }
    d.mix<std::uint64_t>(s.flows.size());
    for (const FlowOutcome& f : s.flows) {
        d.mix(f.completion);
        d.mix(f.bits_sent);
        d.mix(f.last_rate_bps);
        d.mix(f.unreachable_epochs);
    }
    d.mix<std::uint64_t>(s.tracked_series.size());
    for (const auto& series : s.tracked_series) {
        d.mix<std::uint64_t>(series.size());
        for (const auto& [t, rate] : series) {
            d.mix(t);
            d.mix(rate);
        }
    }
    d.mix<std::uint64_t>(s.completed);
    d.mix<std::uint8_t>(s.all_converged ? 1 : 0);
    d.mix<std::uint64_t>(engine.num_recorded_epochs());
    for (std::size_t e = 0; e < engine.num_recorded_epochs(); ++e) {
        for (std::size_t i = 0; i < engine.isls().size(); ++i) {
            d.mix(engine.isl_utilization(e, i));
        }
    }
    return d.value();
}

std::string hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

TEST(FlowSimGolden, FiniteFlowsResolveOnCompletion) {
    PoissonTrafficConfig cfg;
    cfg.num_gs = 8;
    cfg.arrivals_per_s = 60.0;
    cfg.mean_size_bits = 3e6;
    cfg.window = 4 * kNsPerSec;
    cfg.seed = 21;
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 6 * kNsPerSec;
    opts.resolve_on_completion = true;
    Engine engine(golden_scenario(), poisson_traffic(cfg), opts);
    const RunSummary summary = engine.run();
    ASSERT_GT(summary.completed, 50u);
    EXPECT_EQ(hex(summary_digest(engine, summary)), "0xf72f7c63ae4a40d6");
}

TEST(FlowSimGolden, SeveredGroundStationCountsEveryFlow) {
    // Ground station 1 (Dalian) is down on [1.5 s, 3.5 s): every flow to
    // or from it is unreachable there, whatever the constellation does.
    const int num_sats =
        topo::Constellation(topo::shell_by_name("kuiper_k1"), topo::default_epoch())
            .num_satellites();
    const auto sched = fault::FaultSchedule::from_events(
        {{fault::FaultKind::kGroundStation, 1, -1, 1500 * kNsPerMs, 3500 * kNsPerMs}},
        num_sats, 8);
    const std::string path = testing::TempDir() + "flowsim_golden_gs.csv";
    sched.save_csv(path);
    core::Scenario scenario = golden_scenario();
    scenario.faults = fault::FaultSpec{};
    scenario.faults->csv_path = path;

    GravityTrafficConfig cfg;
    cfg.num_gs = 8;
    cfg.num_flows = 3000;
    cfg.size_bits = 4e7;
    cfg.window = 2 * kNsPerSec;
    cfg.seed = 5;
    EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = 5 * kNsPerSec;
    Engine engine(scenario, gravity_traffic(cfg), opts);
    const RunSummary summary = engine.run();
    std::remove(path.c_str());
    int unreachable_flows = 0;
    for (const FlowOutcome& f : summary.flows) unreachable_flows += f.unreachable_epochs > 0;
    ASSERT_GT(unreachable_flows, 100);
    EXPECT_EQ(hex(summary_digest(engine, summary)), "0xd183458c4e71722c");
}

TEST(FlowSimGolden, CbrBackgroundTrackedLikeTheEmuExporter) {
    std::vector<route::GsPair> pairs;
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            if (a != b) pairs.push_back({a, b});
        }
    }
    TrafficMatrix matrix = cbr_background(pairs, 2.5e6);
    matrix.merge(cbr_background(pairs, kNoRateCap));
    matrix.merge(cbr_background({{0, 1}, {2, 3}, {4, 5}}, 1e6));
    matrix.sort_by_arrival();
    EngineOptions opts;
    opts.epoch = 500 * kNsPerMs;
    opts.duration = 3 * kNsPerSec;
    opts.record_link_utilization = true;
    opts.checkpoint = ckpt::Policy::disabled();
    opts.tracked_flows.resize(matrix.size());
    for (std::size_t i = 0; i < matrix.size(); ++i) opts.tracked_flows[i] = i;
    Engine engine(golden_scenario(), matrix, opts);
    const RunSummary summary = engine.run();
    ASSERT_EQ(summary.tracked_series.size(), matrix.size());
    EXPECT_EQ(hex(summary_digest(engine, summary)), "0x87003190cee3fd49");
}

}  // namespace
}  // namespace hypatia::flowsim
