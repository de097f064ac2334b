// LeoNetwork: the top of the public API. Builds a packet-simulated LEO
// network from a Scenario — satellites with SGP4 mobility, +Grid ISLs,
// GSL devices, live link delays — and drives the time-stepped forwarding
// state updates (paper section 3.1/3.2). Applications (ping, UDP, TCP)
// attach to ground-station nodes via sim::Network.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "src/core/scenario.hpp"
#include "src/fault/fault.hpp"
#include "src/routing/forwarding.hpp"
#include "src/routing/graph.hpp"
#include "src/routing/snapshot_refresh.hpp"
#include "src/sim/network.hpp"
#include "src/topology/mobility.hpp"

namespace hypatia::core {

class LeoNetwork {
  public:
    explicit LeoNetwork(const Scenario& scenario);

    // --- component access ----------------------------------------------
    sim::Simulator& simulator() { return sim_; }
    sim::Network& network() { return net_; }
    const Scenario& scenario() const { return scenario_; }
    const topo::Constellation& constellation() const { return constellation_; }
    topo::SatelliteMobility& mobility() { return mobility_; }
    const std::vector<topo::Isl>& isls() const { return isls_; }

    int num_satellites() const { return constellation_.num_satellites(); }
    int num_ground_stations() const {
        return static_cast<int>(scenario_.ground_stations.size());
    }
    /// Simulator/graph node id of ground station `gs_index`.
    int gs_node(int gs_index) const { return num_satellites() + gs_index; }

    /// Constellation (orbital) time for a simulation time (constant when
    /// the scenario is frozen).
    TimeNs orbit_time(TimeNs sim_time) const {
        return scenario_.freeze ? scenario_.start_offset
                                : scenario_.start_offset + sim_time;
    }

    // --- forwarding ------------------------------------------------------
    /// Declares that traffic will target ground station `gs_index`;
    /// forwarding state is computed for declared destinations only
    /// (Hypatia does the same to keep the precomputation tractable).
    void add_destination(int gs_index);

    /// Runs the simulation for `duration`, recomputing and installing
    /// forwarding state every scenario().fstate_interval.
    void run(TimeNs duration);

    /// Called after each forwarding-state installation with the sim time.
    std::function<void(TimeNs)> on_fstate_update;

    /// Current routing view (valid during/after run()).
    const route::ForwardingState& current_fstate() const { return fstate_; }

    /// Current shortest path (node ids, GS endpoints included) between two
    /// ground stations; empty if disconnected.
    std::vector<int> current_path(int src_gs, int dst_gs) const;
    /// Current shortest-path distance in km (+inf when disconnected).
    double current_distance_km(int src_gs, int dst_gs) const;

    /// Device carrying traffic from node `from` to neighbour `to`
    /// (the ISL device if one exists, otherwise `from`'s GSL device).
    sim::NetDevice* device_between(int from, int to);

    /// Devices along the current path from src_gs to dst_gs (forward
    /// direction), empty when disconnected.
    std::vector<sim::NetDevice*> current_path_devices(int src_gs, int dst_gs);

  private:
    void install_fstate(TimeNs sim_time);
    /// Installs forwarding state now and schedules the next install of
    /// the run that ends at `duration`.
    void fstate_tick(TimeNs duration);
    TimeNs propagation_delay(int from, int to, TimeNs sim_time) const;
    Vec3 node_position(int node, TimeNs orbit_time) const;

    Scenario scenario_;
    topo::Constellation constellation_;
    topo::SatelliteMobility mobility_;
    std::vector<topo::Isl> isls_;
    sim::Simulator sim_;
    sim::Network net_;
    std::set<int> destination_gs_;
    std::optional<topo::WeatherModel> weather_;
    // Resolved fault schedule (scenario.faults, else HYPATIA_FAULTS);
    // absent when neither yields outages. Routing excludes failed
    // elements at each fstate install; the per-device link_up probe
    // drops packets crossing a hop that is dead at transmit/delivery
    // time (DESIGN.md section 8).
    std::optional<fault::FaultSchedule> faults_;
    route::SnapshotMode snapshot_mode_ = route::snapshot_mode_from_env();
    std::optional<route::SnapshotRefresher> refresher_;  // lazy, refresh mode
    route::ForwardingState fstate_;
    route::DestinationTree scratch_tree_;  // recycled Dijkstra output buffer
    std::uint64_t fstate_installs_ = 0;
    TimeNs last_install_sim_t_ = 0;  // previous install (fault-event window)
};

}  // namespace hypatia::core
