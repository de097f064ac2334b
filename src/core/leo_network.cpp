#include "src/core/leo_network.hpp"

#include <cmath>
#include <utility>

#include "src/core/heartbeat.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/recorder.hpp"
#include "src/orbit/coords.hpp"
#include "src/routing/shortest_path.hpp"

namespace hypatia::core {

LeoNetwork::LeoNetwork(const Scenario& scenario)
    : scenario_(scenario),
      constellation_(scenario.shell, topo::default_epoch()),
      mobility_(constellation_),
      isls_(topo::build_isls(constellation_, scenario.isl_pattern)),
      net_(sim_) {
    if (scenario.weather.has_value()) weather_.emplace(*scenario.weather);
    {
        std::optional<fault::FaultSpec> spec = scenario_.faults;
        if (!spec.has_value()) spec = fault::spec_from_env();
        if (spec.has_value()) {
            faults_.emplace(fault::FaultSchedule::from_spec(
                *spec, constellation_.num_satellites(), isls_,
                scenario_.ground_stations));
            if (faults_->empty()) faults_.reset();
        }
    }
    // Publish the scenario's shape so every run manifest self-describes.
    auto& m = obs::metrics();
    m.gauge("scenario.num_satellites").set(constellation_.num_satellites());
    m.gauge("scenario.num_ground_stations")
        .set(static_cast<std::int64_t>(scenario_.ground_stations.size()));
    m.gauge("scenario.num_isls").set(static_cast<std::int64_t>(isls_.size()));
    m.gauge("scenario.isl_rate_bps")
        .set(static_cast<std::int64_t>(scenario_.isl_rate_bps));
    m.gauge("scenario.gsl_rate_bps")
        .set(static_cast<std::int64_t>(scenario_.gsl_rate_bps));
    m.gauge("scenario.fstate_interval_ms").set(scenario_.fstate_interval / kNsPerMs);
    const int num_sats = constellation_.num_satellites();
    const int num_gs = num_ground_stations();
    net_.create_nodes(num_sats + num_gs);

    const auto delay = [this](int from, int to, TimeNs t) {
        return propagation_delay(from, to, t);
    };
    // Device-level fault probe: the schedule lives in orbit time, the
    // simulator in sim time. Routing avoids dead hops at each install,
    // but packets forwarded on stale state (or in flight when a link
    // dies) cross the probe and are dropped.
    sim::LinkUpFn link_up = nullptr;
    if (faults_.has_value()) {
        link_up = [this](int from, int to, TimeNs t) {
            return faults_->link_up(from, to, orbit_time(t));
        };
    }

    for (const auto& isl : isls_) {
        net_.add_isl(isl.sat_a, isl.sat_b, scenario_.isl_rate_bps,
                     scenario_.isl_queue_packets, delay, link_up);
    }
    // One GSL device per satellite and per ground station (paper 3.1).
    for (int s = 0; s < num_sats; ++s) {
        net_.add_gsl(s, scenario_.gsl_rate_bps, scenario_.gsl_queue_packets, delay,
                     link_up);
    }
    for (int g = 0; g < num_gs; ++g) {
        net_.add_gsl(gs_node(g), scenario_.gsl_rate_bps, scenario_.gsl_queue_packets,
                     delay, link_up);
    }
}

Vec3 LeoNetwork::node_position(int node, TimeNs orbit_time) const {
    if (node < num_satellites()) return mobility_.position_ecef(node, orbit_time);
    return scenario_.ground_stations[static_cast<std::size_t>(node - num_satellites())]
        .ecef();
}

TimeNs LeoNetwork::propagation_delay(int from, int to, TimeNs sim_time) const {
    const TimeNs t = orbit_time(sim_time);
    const double km = node_position(from, t).distance_to(node_position(to, t));
    return seconds_to_ns(km / orbit::kSpeedOfLightKmPerS);
}

void LeoNetwork::add_destination(int gs_index) { destination_gs_.insert(gs_index); }

void LeoNetwork::install_fstate(TimeNs sim_time) {
    HYPATIA_PROFILE_SCOPE("routing.fstate_install");
    static obs::Counter* const installs_metric =
        &obs::metrics().counter("route.fstate_installs");
    static obs::Counter* const changed_metric =
        &obs::metrics().counter("route.fstate_entries_changed");
    route::SnapshotOptions opts;
    opts.relay_gs_indices = scenario_.relay_gs_indices;
    opts.include_isls = scenario_.isl_pattern != topo::IslPattern::kNone;
    opts.gs_nearest_satellite_only = scenario_.gs_nearest_satellite_only;
    if (weather_.has_value()) {
        opts.gsl_range_factor = [this](int gs_index, TimeNs t) {
            return weather_->gsl_range_factor(gs_index, t);
        };
    }
    if (faults_.has_value()) opts.faults = &*faults_;
    // Refresh mode (the default) keeps one graph alive across installs
    // and delta-patches it; HYPATIA_SNAPSHOT_MODE=rebuild reconstructs it
    // every interval (the legacy reference path). Identical outputs.
    std::optional<route::Graph> rebuilt;
    const route::Graph* graph;
    if (snapshot_mode_ == route::SnapshotMode::kRefresh) {
        if (!refresher_.has_value()) {
            refresher_.emplace(mobility_, isls_, scenario_.ground_stations,
                               std::move(opts));
        }
        graph = &refresher_->refresh(orbit_time(sim_time));
    } else {
        rebuilt.emplace(route::build_snapshot(
            mobility_, isls_, scenario_.ground_stations, orbit_time(sim_time), opts));
        graph = &*rebuilt;
    }

    std::uint64_t entries_changed = 0;
    for (int dst_gs : destination_gs_) {
        const int dst_node = gs_node(dst_gs);
        // Compute into the recycled scratch buffer, diff, then swap it
        // into the stored state — no per-install tree allocations.
        route::thread_dijkstra_workspace().run(*graph, dst_node, scratch_tree_);
        // Install only entries that changed since the previous state
        // (Hypatia's fstate deltas); the first installation writes all.
        const route::DestinationTree* prev = fstate_.tree(dst_node);
        for (int node = 0; node < graph->num_nodes(); ++node) {
            const int nh = scratch_tree_.next_hop[static_cast<std::size_t>(node)];
            if (prev != nullptr &&
                prev->next_hop[static_cast<std::size_t>(node)] == nh) {
                continue;
            }
            net_.node(node).set_next_hop(dst_node, nh);
            ++entries_changed;
        }
        std::swap(fstate_.mutable_tree(dst_node), scratch_tree_);
    }
    // Flight recorder: the install itself plus every fault transition
    // crossed since the previous install (half-open window in orbit
    // time, stamped back in sim time). The first install looks one
    // interval back so outages active from t = 0 are on record.
    if (faults_.has_value() && !scenario_.freeze) {
        const TimeNs prev = fstate_installs_ == 0
                                ? sim_time - scenario_.fstate_interval
                                : last_install_sim_t_;
        fault::record_transitions(*faults_, orbit_time(prev), orbit_time(sim_time),
                                  -scenario_.start_offset);
    }
    last_install_sim_t_ = sim_time;
    obs::recorder().record(obs::EventKind::kFstateInstall, sim_time,
                           static_cast<std::int32_t>(entries_changed));
    ++fstate_installs_;
    installs_metric->inc();
    changed_metric->inc(entries_changed);
    auto& tracer = obs::tracer();
    if (tracer.enabled(obs::TraceCategory::kRouting)) {
        tracer.emit(obs::make_record(sim_time, obs::TraceCategory::kRouting,
                                     "route.fstate_install", /*node=*/-1,
                                     /*peer=*/-1, /*flow_id=*/0,
                                     static_cast<std::int64_t>(entries_changed)));
    }
    if (on_fstate_update) on_fstate_update(sim_time);
}

void LeoNetwork::run(TimeNs duration) {
    if (heartbeat_enabled_from_env()) {
        attach_heartbeat(sim_, duration, heartbeat_interval_from_env());
    }
    // Install state at t = 0 and then at every interval boundary. Events
    // are scheduled one at a time so the event queue stays small.
    sim_.schedule_at(0, [this, duration] { fstate_tick(duration); });
    sim_.run_until(duration);
}

void LeoNetwork::fstate_tick(TimeNs duration) {
    install_fstate(sim_.now());
    const TimeNs next = sim_.now() + scenario_.fstate_interval;
    if (next <= duration) sim_.schedule_at(next, [this, duration] { fstate_tick(duration); });
}

std::vector<int> LeoNetwork::current_path(int src_gs, int dst_gs) const {
    const auto* tree = fstate_.tree(gs_node(dst_gs));
    if (tree == nullptr) return {};
    return route::extract_path(*tree, gs_node(src_gs));
}

double LeoNetwork::current_distance_km(int src_gs, int dst_gs) const {
    return fstate_.distance_km(gs_node(src_gs), gs_node(dst_gs));
}

sim::NetDevice* LeoNetwork::device_between(int from, int to) {
    sim::Node& node = net_.node(from);
    if (sim::NetDevice* isl = node.isl_device_to(to)) return isl;
    return node.gsl_device();
}

std::vector<sim::NetDevice*> LeoNetwork::current_path_devices(int src_gs, int dst_gs) {
    std::vector<sim::NetDevice*> devices;
    const auto path = current_path(src_gs, dst_gs);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        devices.push_back(device_between(path[i], path[i + 1]));
    }
    return devices;
}

}  // namespace hypatia::core
