// The flow-level simulation engine: Hypatia's routing/mobility substrate
// with the packet layer replaced by a fluid model. Instead of per-packet
// events, every re-route epoch (default 1 s) the engine
//   1. brings the topology snapshot to the epoch time (SGP4 mobility +
//      ISLs + GSL visibility, weather hooks included; in-place refresh
//      by default, full rebuild under HYPATIA_SNAPSHOT_MODE=rebuild),
//   2. recomputes per-destination forwarding trees (same Dijkstra the
//      packet simulator installs),
//   3. walks the path of each distinct (src, dst) ground-station pair
//      among the active flows once and maps its hops onto transmit
//      resources (one per ISL direction, one per node's shared GSL
//      device — the same serialization points the packet model has),
//      then puts every active flow on its pair's path, and
//   4. solves the max-min fair-share problem for all active flows.
// Rates then stay constant until the next epoch; finite flows complete at
// the exact fluid time. The cost per epoch is O(Dijkstra * destinations +
// total path length + solver), independent of rate x duration — the
// scaling axis where packet-level simulation hits the paper's Fig. 2
// wall. The price is per-packet fidelity: no queueing delay, loss or
// cwnd dynamics, and capacity freed mid-epoch is only reallocated at the
// next epoch boundary (or immediately with resolve_on_completion).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/ckpt/checkpoint.hpp"
#include "src/core/scenario.hpp"
#include "src/fault/fault.hpp"
#include "src/flowsim/solver.hpp"
#include "src/flowsim/traffic.hpp"
#include "src/routing/forwarding.hpp"
#include "src/routing/snapshot_refresh.hpp"
#include "src/topology/mobility.hpp"
#include "src/topology/weather.hpp"

namespace hypatia::flowsim {

struct EngineOptions {
    /// Re-route / re-solve interval. Coarser than the packet simulator's
    /// 100 ms fstate interval by default: a fluid model has no per-packet
    /// state to keep consistent between installs.
    TimeNs epoch = kNsPerSec;
    TimeNs duration = 200 * kNsPerSec;
    /// Re-solve the rate allocation whenever a flow completes mid-epoch
    /// (exact fluid dynamics; costs one solver run per completion).
    /// Off by default: freed capacity waits for the epoch boundary.
    bool resolve_on_completion = false;
    /// Record per-epoch, per-ISL utilization (for the viz exporters).
    bool record_link_utilization = false;
    /// Flow ids (matrix indices) whose (t, rate) series to record.
    std::vector<std::size_t> tracked_flows;
    /// Optional capacity scaling: all link capacities are multiplied by
    /// this factor at each epoch (models brownouts / capacity changes).
    std::function<double(TimeNs)> capacity_factor;
    /// Checkpoint/restore policy (DESIGN.md §13). Disengaged (the
    /// default) resolves HYPATIA_CKPT_* through ckpt::Manager::global();
    /// an explicit Policy overrides the environment, and
    /// ckpt::Policy::disabled() turns checkpointing off regardless (the
    /// emu exporter's inner background engine does this so it never
    /// collides with the outer pacer's checkpoint directory).
    std::optional<ckpt::Policy> checkpoint;
    /// Called after each epoch boundary finishes; returning false stops
    /// the run early with the partial summary. Tests use this to
    /// interrupt a run at a deterministic point and resume it.
    std::function<bool(std::size_t boundary_index, TimeNs t)> epoch_hook;
};

/// Per-flow outcome after run().
struct FlowOutcome {
    TimeNs completion = -1;       // -1: still active (or never arrived) at end
    double bits_sent = 0.0;
    double last_rate_bps = 0.0;   // allocation in the flow's final epoch
    int unreachable_epochs = 0;   // epochs spent with no path
};

/// Per-epoch aggregate.
struct EpochStats {
    TimeNs t = 0;
    std::size_t active = 0;       // flows in this epoch's allocation
    std::size_t arrivals = 0;
    std::size_t completions = 0;  // completed before the next epoch
    std::size_t unreachable = 0;
    double sum_rate_bps = 0.0;
    double max_link_utilization = 0.0;
    int solver_rounds = 0;
    bool converged = true;
};

struct RunSummary {
    std::vector<EpochStats> epochs;
    std::vector<FlowOutcome> flows;     // parallel to the traffic matrix
    /// (t, rate) series for each EngineOptions::tracked_flows entry.
    std::vector<std::vector<std::pair<TimeNs, double>>> tracked_series;
    std::size_t completed = 0;
    bool all_converged = true;

    double completion_rate() const {
        return flows.empty() ? 0.0
                             : static_cast<double>(completed) /
                                   static_cast<double>(flows.size());
    }
};

class Engine {
  public:
    /// The scenario supplies constellation, ground stations, link rates
    /// and the weather/GS-policy knobs; the packet-level fields (queue
    /// sizes, fstate_interval) are ignored.
    Engine(const core::Scenario& scenario, TrafficMatrix matrix,
           EngineOptions options = {});

    RunSummary run();

    // --- substrate access (viz exporters, tests) -----------------------
    const core::Scenario& scenario() const { return scenario_; }
    const topo::SatelliteMobility& mobility() const { return mobility_; }
    const std::vector<topo::Isl>& isls() const { return isls_; }
    const TrafficMatrix& matrix() const { return matrix_; }
    int num_satellites() const { return constellation_.num_satellites(); }
    int gs_node(int gs_index) const { return num_satellites() + gs_index; }
    TimeNs orbit_time(TimeNs sim_time) const {
        return scenario_.freeze ? scenario_.start_offset
                                : scenario_.start_offset + sim_time;
    }
    TimeNs epoch_interval() const { return options_.epoch; }

    /// Utilization in [0, 1] of ISL `isl_index` (max of both directions)
    /// during epoch `epoch`; requires record_link_utilization.
    double isl_utilization(std::size_t epoch, std::size_t isl_index) const {
        return isl_utilization_[epoch][isl_index];
    }
    std::size_t num_recorded_epochs() const { return isl_utilization_.size(); }

  private:
    struct EpochProblem {
        FairShareProblem problem;
        std::vector<std::uint32_t> flow_of_problem;  // problem row -> flow id
        std::vector<std::uint32_t> unreachable;      // active but pathless
    };

    /// Brings fstate_ to epoch `t` for the given destinations and returns
    /// it. Refresh mode (the default) updates one long-lived graph and
    /// recycles the tree buffers; HYPATIA_SNAPSHOT_MODE=rebuild rebuilds
    /// both from scratch. Outputs are byte-identical either way.
    const route::ForwardingState& compute_epoch_forwarding(
        TimeNs t, const std::vector<int>& dst_gs);
    route::SnapshotOptions snapshot_options();
    /// Fills problem_ for the active flows (DESIGN.md §15) and returns it.
    const EpochProblem& build_problem(const route::ForwardingState& fstate,
                                      const std::vector<std::uint32_t>& active,
                                      TimeNs t);
    std::uint32_t resource_for_hop(int from, int to) const;

    core::Scenario scenario_;
    topo::Constellation constellation_;
    topo::SatelliteMobility mobility_;
    std::vector<topo::Isl> isls_;
    std::optional<topo::WeatherModel> weather_;
    /// Resolved fault schedule (scenario spec or HYPATIA_FAULTS);
    /// disengaged when neither yields any outage. With a schedule, run()
    /// splits epochs at fault transitions so severed flows stall or
    /// reroute at the exact instant, and rate conservation (bits_sent
    /// integrates the allocated rate, severed flows allocate zero) is
    /// preserved across the extra boundaries.
    std::optional<fault::FaultSchedule> faults_;
    TrafficMatrix matrix_;
    EngineOptions options_;

    route::SnapshotMode snapshot_mode_ = route::snapshot_mode_from_env();
    std::optional<route::SnapshotRefresher> refresher_;  // lazy, refresh mode
    route::ForwardingState fstate_;  // recycled across epochs

    // Resource layout: [2 * isl_index + direction] then [gsl_base_ + node].
    // Satellite s's ISL ports (peer, transmit resource) are
    // ports_[port_offset_[s] .. port_offset_[s + 1]).
    struct Port {
        int peer;
        std::uint32_t resource;
    };
    std::vector<std::uint32_t> port_offset_;
    std::vector<Port> ports_;
    std::uint32_t gsl_base_ = 0;
    std::uint32_t num_resources_ = 0;

    // Epoch problem buffers, reused across build_problem calls.
    // pair_slot_[src * num_gs + dst] is the pair's slot while a problem is
    // being built and -1 otherwise; slot_pair_ lists the slots' pair keys
    // in first-seen order and slot_path_ their path ids (-1: unreachable).
    EpochProblem problem_;
    std::vector<std::int32_t> pair_slot_;
    std::vector<std::uint32_t> slot_pair_;
    std::vector<std::int32_t> slot_path_;

    std::vector<std::vector<double>> isl_utilization_;  // [epoch][isl]
};

}  // namespace hypatia::flowsim
