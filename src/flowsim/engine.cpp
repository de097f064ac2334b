#include "src/flowsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "src/obs/observability.hpp"
#include "src/obs/recorder.hpp"
#include "src/routing/graph.hpp"
#include "src/routing/shortest_path.hpp"

namespace hypatia::flowsim {

Engine::Engine(const core::Scenario& scenario, TrafficMatrix matrix,
               EngineOptions options)
    : scenario_(scenario),
      constellation_(scenario.shell, topo::default_epoch()),
      mobility_(constellation_),
      isls_(topo::build_isls(constellation_, scenario.isl_pattern)),
      matrix_(std::move(matrix)),
      options_(std::move(options)) {
    if (scenario.weather.has_value()) weather_.emplace(*scenario.weather);

    // Fault schedule: the scenario's spec wins; otherwise HYPATIA_FAULTS.
    // An empty resolved schedule is discarded so the epoch loop stays on
    // the plain grid.
    std::optional<fault::FaultSpec> fault_spec = scenario_.faults;
    if (!fault_spec.has_value()) fault_spec = fault::spec_from_env();
    if (fault_spec.has_value() && !fault_spec->empty()) {
        faults_.emplace(fault::FaultSchedule::from_spec(
            *fault_spec, constellation_.num_satellites(), isls_,
            scenario_.ground_stations));
        if (faults_->empty()) faults_.reset();
    }
    matrix_.sort_by_arrival();

    const int num_sats = constellation_.num_satellites();
    const int num_gs = static_cast<int>(scenario_.ground_stations.size());
    // Port CSR: ISL i gives sat_a the port (sat_b, 2i) and sat_b the port
    // (sat_a, 2i + 1). A pair listed twice would make the hop ambiguous.
    port_offset_.assign(static_cast<std::size_t>(num_sats) + 1, 0);
    for (const topo::Isl& isl : isls_) {
        ++port_offset_[static_cast<std::size_t>(isl.sat_a) + 1];
        ++port_offset_[static_cast<std::size_t>(isl.sat_b) + 1];
    }
    std::partial_sum(port_offset_.begin(), port_offset_.end(), port_offset_.begin());
    ports_.assign(port_offset_.back(), Port{-1, 0});
    gsl_base_ = static_cast<std::uint32_t>(2 * isls_.size());
    std::vector<std::uint32_t> cursor(port_offset_.begin(), port_offset_.end() - 1);
    for (std::size_t i = 0; i < isls_.size(); ++i) {
        const auto a = static_cast<std::size_t>(isls_[i].sat_a);
        const auto b = static_cast<std::size_t>(isls_[i].sat_b);
        if (resource_for_hop(isls_[i].sat_a, isls_[i].sat_b) < gsl_base_) {
            throw std::logic_error("flowsim: ISL (" + std::to_string(a) + ", " +
                                   std::to_string(b) + ") is listed twice");
        }
        ports_[cursor[a]++] = {isls_[i].sat_b, static_cast<std::uint32_t>(2 * i)};
        ports_[cursor[b]++] = {isls_[i].sat_a, static_cast<std::uint32_t>(2 * i + 1)};
    }
    num_resources_ = gsl_base_ + static_cast<std::uint32_t>(num_sats + num_gs);
    pair_slot_.assign(static_cast<std::size_t>(num_gs) * static_cast<std::size_t>(num_gs),
                      -1);

    auto& m = obs::metrics();
    m.gauge("scenario.num_satellites").set(constellation_.num_satellites());
    m.gauge("scenario.num_ground_stations")
        .set(static_cast<double>(scenario_.ground_stations.size()));
    m.gauge("scenario.num_isls").set(static_cast<double>(isls_.size()));
    m.gauge("flowsim.num_flows").set(static_cast<double>(matrix_.size()));
    m.gauge("flowsim.epoch_ms").set(ns_to_ms(options_.epoch));
}

std::uint32_t Engine::resource_for_hop(int from, int to) const {
    if (from < num_satellites() && to < num_satellites()) {
        const auto s = static_cast<std::size_t>(from);
        for (std::uint32_t k = port_offset_[s]; k < port_offset_[s + 1]; ++k) {
            if (ports_[k].peer == to) return ports_[k].resource;
        }
    }
    // Any hop that is not a provisioned ISL serializes on `from`'s shared
    // GSL transmit device — the same contention point the packet model has.
    return gsl_base_ + static_cast<std::uint32_t>(from);
}

route::SnapshotOptions Engine::snapshot_options() {
    route::SnapshotOptions opts;
    opts.include_isls = scenario_.isl_pattern != topo::IslPattern::kNone;
    opts.relay_gs_indices = scenario_.relay_gs_indices;
    opts.gs_nearest_satellite_only = scenario_.gs_nearest_satellite_only;
    if (weather_.has_value()) {
        opts.gsl_range_factor = [this](int gs_index, TimeNs at) {
            return weather_->gsl_range_factor(gs_index, at);
        };
    }
    if (faults_.has_value()) opts.faults = &*faults_;
    return opts;
}

const route::ForwardingState& Engine::compute_epoch_forwarding(
    TimeNs t, const std::vector<int>& dst_gs) {
    std::vector<int> dst_nodes;
    dst_nodes.reserve(dst_gs.size());
    for (const int gs : dst_gs) dst_nodes.push_back(gs_node(gs));

    if (snapshot_mode_ == route::SnapshotMode::kRefresh) {
        const route::Graph* graph;
        {
            HYPATIA_PROFILE_SCOPE("flowsim.snapshot");
            if (!refresher_.has_value()) {
                refresher_.emplace(mobility_, isls_, scenario_.ground_stations,
                                   snapshot_options());
            }
            graph = &refresher_->refresh(orbit_time(t));
        }
        HYPATIA_PROFILE_SCOPE("flowsim.forwarding");
        route::compute_forwarding_into(*graph, dst_nodes, fstate_);
        return fstate_;
    }

    const route::Graph graph = [&] {
        HYPATIA_PROFILE_SCOPE("flowsim.snapshot");
        return route::build_snapshot(mobility_, isls_, scenario_.ground_stations,
                                     orbit_time(t), snapshot_options());
    }();
    HYPATIA_PROFILE_SCOPE("flowsim.forwarding");
    fstate_ = route::compute_forwarding(graph, dst_nodes);
    return fstate_;
}

const Engine::EpochProblem& Engine::build_problem(
    const route::ForwardingState& fstate, const std::vector<std::uint32_t>& active,
    TimeNs t) {
    HYPATIA_PROFILE_SCOPE("flowsim.paths");
    EpochProblem& ep = problem_;
    FairShareProblem& problem = ep.problem;
    const double factor =
        options_.capacity_factor ? options_.capacity_factor(t) : 1.0;
    problem.capacity_bps.assign(num_resources_, scenario_.gsl_rate_bps * factor);
    std::fill_n(problem.capacity_bps.begin(), gsl_base_, scenario_.isl_rate_bps * factor);
    problem.clear_flows();
    ep.flow_of_problem.clear();
    ep.unreachable.clear();

    // Every flow of a (src, dst) pair follows the pair's path, so number
    // the pairs of the active flows in first-seen order ...
    const auto num_gs = static_cast<std::uint32_t>(scenario_.ground_stations.size());
    const auto pair_key = [&](std::uint32_t f) {
        const Flow& flow = matrix_.flows[f];
        return static_cast<std::uint32_t>(flow.src_gs) * num_gs +
               static_cast<std::uint32_t>(flow.dst_gs);
    };
    slot_pair_.clear();
    for (const std::uint32_t f : active) {
        const std::uint32_t key = pair_key(f);
        if (pair_slot_[key] < 0) {
            pair_slot_[key] = static_cast<std::int32_t>(slot_pair_.size());
            slot_pair_.push_back(key);
        }
    }

    // ... walk each pair once, straight into the problem's path CSR ...
    const int max_hops = num_satellites() + static_cast<int>(num_gs);
    slot_path_.resize(slot_pair_.size());
    for (std::size_t slot = 0; slot < slot_pair_.size(); ++slot) {
        const std::uint32_t key = slot_pair_[slot];
        const int dst_node = gs_node(static_cast<int>(key % num_gs));
        const route::DestinationTree* tree = fstate.tree(dst_node);
        const std::size_t begin = problem.path_links.size();
        bool reachable = tree != nullptr;
        int node = gs_node(static_cast<int>(key / num_gs));
        while (reachable && node != dst_node) {
            const int nh = tree->next_hop[static_cast<std::size_t>(node)];
            if (nh < 0 ||
                static_cast<int>(problem.path_links.size() - begin) >= max_hops) {
                reachable = false;
                break;
            }
            problem.path_links.push_back(resource_for_hop(node, nh));
            node = nh;
        }
        if (reachable) {
            slot_path_[slot] = static_cast<std::int32_t>(problem.num_paths());
            problem.path_offset.push_back(
                static_cast<std::uint32_t>(problem.path_links.size()));
        } else {
            slot_path_[slot] = -1;
            problem.path_links.resize(begin);
        }
    }

    // ... and put the flows on the paths in active-flow (ascending id)
    // order, the row order every consumer of the solution sums in.
    ep.flow_of_problem.reserve(active.size());
    for (const std::uint32_t f : active) {
        const std::int32_t path = slot_path_[static_cast<std::size_t>(pair_slot_[pair_key(f)])];
        if (path < 0) {
            ep.unreachable.push_back(f);
            continue;
        }
        problem.add_flow_on(static_cast<std::uint32_t>(path), matrix_.flows[f].rate_cap_bps);
        ep.flow_of_problem.push_back(f);
    }
    for (const std::uint32_t key : slot_pair_) pair_slot_[key] = -1;  // clean for next call
    return ep;
}

RunSummary Engine::run() {
    HYPATIA_PROFILE_SCOPE("flowsim.run");
    auto& m = obs::metrics();
    obs::Counter* const created_metric = &m.counter("flowsim.flows_created");
    obs::Counter* const completed_metric = &m.counter("flowsim.flows_completed");
    obs::Counter* const epochs_metric = &m.counter("flowsim.epochs");
    obs::Counter* const unreachable_metric =
        &m.counter("flowsim.unreachable_flow_epochs");
    obs::Gauge* const active_peak = &m.gauge("flowsim.active_flows_peak");
    obs::Histogram* const fct_ms = &m.histogram("flowsim.fct_ms");
    obs::Histogram* const rate_kbps = &m.histogram("flowsim.flow_rate_kbps");
    auto& tracer = obs::tracer();

    isl_utilization_.clear();
    RunSummary summary;
    summary.flows.assign(matrix_.size(), FlowOutcome{});
    summary.tracked_series.resize(options_.tracked_flows.size());
    std::unordered_map<std::size_t, std::size_t> tracked_slot;
    for (std::size_t i = 0; i < options_.tracked_flows.size(); ++i) {
        tracked_slot[options_.tracked_flows[i]] = i;
    }

    std::vector<double> remaining(matrix_.size(), 0.0);
    std::vector<double> rate(matrix_.size(), 0.0);
    std::vector<char> done(matrix_.size(), 0);
    std::vector<std::uint32_t> active;  // ascending flow id (arrival order)
    std::size_t next_arrival = 0;
    const int num_gs = static_cast<int>(scenario_.ground_stations.size());
    std::vector<char> dst_seen(static_cast<std::size_t>(num_gs), 0);

    // Epoch boundaries: the plain epoch grid, plus — with a fault
    // schedule — every fault transition inside the window, so a path
    // severed mid-epoch is observed and re-solved at the exact instant
    // it breaks instead of the next grid point. Without faults this is
    // exactly the historical fixed-step loop. A frozen scenario observes
    // the constant fault state at start_offset, like it observes a
    // constant topology.
    std::vector<TimeNs> boundaries;
    for (TimeNs t = 0; t < options_.duration; t += options_.epoch) {
        boundaries.push_back(t);
    }
    if (faults_.has_value() && !scenario_.freeze) {
        const std::size_t grid_points = boundaries.size();
        std::vector<TimeNs> cuts;
        faults_->change_times_in(orbit_time(0), orbit_time(options_.duration), cuts);
        for (const TimeNs cut : cuts) {
            boundaries.push_back(cut - scenario_.start_offset);
        }
        std::sort(boundaries.begin(), boundaries.end());
        boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                         boundaries.end());
        m.counter("fault.segments").inc(boundaries.size() - grid_points);
    }
    // Flows whose previous segment had a path, for severed detection.
    std::vector<char> was_reachable(matrix_.size(), 0);
    obs::Counter* const severed_metric = &m.counter("fault.flows_severed");

    // --- checkpoint/restore (DESIGN.md §13) ---------------------------
    std::optional<ckpt::Manager> local_ckpt;
    ckpt::Manager* const ckpt_mgr =
        ckpt::Manager::resolve(options_.checkpoint, local_ckpt);

    // Identity of this run's *re-derived* substrate: the arrival-sorted
    // traffic matrix, the boundary grid (epoch grid + fault cuts), the
    // resource layout and link rates. Restore recomputes all of it from
    // the scenario and refuses a checkpoint whose digest disagrees — a
    // resumed run can only ever continue the exact same problem.
    const std::uint64_t state_digest = [&] {
        ckpt::Digest d;
        d.mix<std::uint64_t>(matrix_.size());
        for (const Flow& f : matrix_.flows) {
            d.mix(f.src_gs);
            d.mix(f.dst_gs);
            d.mix(f.arrival);
            d.mix(f.size_bits);
            d.mix(f.rate_cap_bps);
        }
        d.mix(options_.epoch);
        d.mix(options_.duration);
        d.mix<std::uint8_t>(options_.resolve_on_completion ? 1 : 0);
        d.mix<std::uint8_t>(options_.record_link_utilization ? 1 : 0);
        d.mix<std::uint64_t>(options_.tracked_flows.size());
        for (const std::size_t f : options_.tracked_flows) {
            d.mix<std::uint64_t>(f);
        }
        d.mix<std::uint64_t>(boundaries.size());
        for (const TimeNs b : boundaries) d.mix(b);
        d.mix(num_resources_);
        d.mix(scenario_.isl_rate_bps);
        d.mix(scenario_.gsl_rate_bps);
        return d.value();
    }();

    // Everything the loop mutates across boundaries, serialized as the
    // "flowsim.engine" section. `bi` is the next boundary to process:
    // the image captures state *after* boundaries [0, bi).
    const auto save_engine_section = [&](std::size_t bi) {
        ckpt::Writer w;
        w.u64(state_digest);
        w.u64(bi);
        w.u64(next_arrival);
        w.u64(summary.completed);
        w.u8(summary.all_converged ? 1 : 0);
        w.vec(remaining);
        w.vec(rate);
        w.vec(done);
        w.vec(active);
        w.vec(was_reachable);
        w.u64(summary.epochs.size());
        for (const EpochStats& s : summary.epochs) {
            w.i64(s.t);
            w.u64(s.active);
            w.u64(s.arrivals);
            w.u64(s.completions);
            w.u64(s.unreachable);
            w.f64(s.sum_rate_bps);
            w.f64(s.max_link_utilization);
            w.i32(s.solver_rounds);
            w.u8(s.converged ? 1 : 0);
        }
        w.u64(summary.flows.size());
        for (const FlowOutcome& f : summary.flows) {
            w.i64(f.completion);
            w.f64(f.bits_sent);
            w.f64(f.last_rate_bps);
            w.i32(f.unreachable_epochs);
        }
        w.u64(summary.tracked_series.size());
        for (const auto& series : summary.tracked_series) {
            w.u64(series.size());
            for (const auto& [st, sr] : series) {
                w.i64(st);
                w.f64(sr);
            }
        }
        w.u64(isl_utilization_.size());
        for (const auto& per_isl : isl_utilization_) w.vec(per_isl);
        return w.take();
    };

    // Resume: the flow table and outcome accumulators come from the
    // newest good generation; mobility and routing state need nothing —
    // the refresher is lazily created, and a fresh refresher's first
    // refresh(t) is byte-identical to rebuild(t) (the refresh-vs-
    // rebuild invariant), so the resumed epoch forwards exactly like
    // the uninterrupted one.
    std::size_t bi_start = 0;
    if (ckpt_mgr != nullptr && ckpt_mgr->policy().resume) {
        if (const std::optional<ckpt::Checkpoint> saved =
                ckpt_mgr->load_latest()) {
            try {
                const ckpt::Section* section = saved->find("flowsim.engine");
                if (section == nullptr) {
                    throw ckpt::CorruptError("no flowsim.engine section");
                }
                ckpt::Reader r(section->payload);
                if (r.u64() != state_digest) {
                    throw ckpt::CorruptError(
                        "state digest mismatch (different scenario/matrix)");
                }
                // Parse into temporaries, commit only after every read
                // and shape check passed.
                const std::uint64_t bi = r.u64();
                const std::uint64_t r_next_arrival = r.u64();
                const std::uint64_t r_completed = r.u64();
                const bool r_all_converged = r.u8() != 0;
                std::vector<double> r_remaining, r_rate;
                std::vector<char> r_done, r_was;
                std::vector<std::uint32_t> r_active;
                r.vec(r_remaining);
                r.vec(r_rate);
                r.vec(r_done);
                r.vec(r_active);
                r.vec(r_was);
                std::vector<EpochStats> r_epochs(r.u64());
                for (EpochStats& s : r_epochs) {
                    s.t = r.i64();
                    s.active = static_cast<std::size_t>(r.u64());
                    s.arrivals = static_cast<std::size_t>(r.u64());
                    s.completions = static_cast<std::size_t>(r.u64());
                    s.unreachable = static_cast<std::size_t>(r.u64());
                    s.sum_rate_bps = r.f64();
                    s.max_link_utilization = r.f64();
                    s.solver_rounds = r.i32();
                    s.converged = r.u8() != 0;
                }
                std::vector<FlowOutcome> r_flows(r.u64());
                for (FlowOutcome& f : r_flows) {
                    f.completion = r.i64();
                    f.bits_sent = r.f64();
                    f.last_rate_bps = r.f64();
                    f.unreachable_epochs = r.i32();
                }
                std::vector<std::vector<std::pair<TimeNs, double>>> r_tracked(
                    r.u64());
                for (auto& series : r_tracked) {
                    series.resize(r.u64());
                    for (auto& [st, sr] : series) {
                        st = r.i64();
                        sr = r.f64();
                    }
                }
                std::vector<std::vector<double>> r_util(r.u64());
                for (auto& per_isl : r_util) r.vec(per_isl);
                if (bi > boundaries.size() || r_next_arrival > matrix_.size() ||
                    r_remaining.size() != matrix_.size() ||
                    r_rate.size() != matrix_.size() ||
                    r_done.size() != matrix_.size() ||
                    r_was.size() != matrix_.size() ||
                    r_flows.size() != matrix_.size() ||
                    r_tracked.size() != summary.tracked_series.size()) {
                    throw ckpt::CorruptError("engine section shape mismatch");
                }
                next_arrival = static_cast<std::size_t>(r_next_arrival);
                summary.completed = static_cast<std::size_t>(r_completed);
                summary.all_converged = r_all_converged;
                remaining = std::move(r_remaining);
                rate = std::move(r_rate);
                done = std::move(r_done);
                was_reachable = std::move(r_was);
                active = std::move(r_active);
                summary.epochs = std::move(r_epochs);
                summary.flows = std::move(r_flows);
                summary.tracked_series = std::move(r_tracked);
                isl_utilization_ = std::move(r_util);
                bi_start = static_cast<std::size_t>(bi);
                // Metrics last: overwrites everything this constructor
                // and the restore above incremented, so /metrics of the
                // resumed process match the uninterrupted run's.
                if (const ckpt::Section* ms = saved->find("obs.metrics")) {
                    ckpt::Reader mr(ms->payload);
                    ckpt::restore_metrics_section(mr);
                }
            } catch (const ckpt::CorruptError& e) {
                std::fprintf(stderr,
                             "hypatia: not resuming from checkpoint (%s)\n",
                             e.what());
                m.counter("ckpt.restore_rejected").inc();
                bi_start = 0;
            }
        }
    }

    const auto complete_flow = [&](std::uint32_t f, TimeNs at) {
        done[f] = 1;
        FlowOutcome& outcome = summary.flows[f];
        outcome.completion = at;
        ++summary.completed;
        completed_metric->inc();
        fct_ms->record(static_cast<std::uint64_t>(
            std::max<TimeNs>(0, at - matrix_.flows[f].arrival) / kNsPerMs));
        rate_kbps->record(static_cast<std::uint64_t>(rate[f] / 1e3));
        if (tracer.enabled(obs::TraceCategory::kFlow)) {
            tracer.emit(obs::make_record(
                at, obs::TraceCategory::kFlow, "flow.complete",
                matrix_.flows[f].src_gs, matrix_.flows[f].dst_gs, f,
                static_cast<std::int64_t>(outcome.bits_sent), rate[f]));
        }
    };

    for (std::size_t bi = bi_start; bi < boundaries.size(); ++bi) {
        const TimeNs t = boundaries[bi];
        // Checkpoint at the boundary: the encoded image is everything
        // accumulated through boundaries [0, bi), so a resumed run
        // re-enters the loop exactly here. A durable write happens when
        // the interval is due; otherwise the image is armed for the
        // fatal-signal / shutdown flush.
        if (ckpt_mgr != nullptr && bi > bi_start) {
            ckpt::Checkpoint ck;
            ck.epoch_index = bi;
            ck.sim_time = t;
            ck.add("flowsim.engine", save_engine_section(bi));
            ckpt::Writer mw;
            ckpt::save_metrics_section(mw);
            ck.add("obs.metrics", mw.take());
            if (ckpt_mgr->due()) {
                ckpt_mgr->write(std::move(ck));
            } else {
                ckpt_mgr->arm(std::move(ck));
            }
        }
        // Flight recorder: fault transitions this segment boundary just
        // crossed, stamped in sim time like every other flowsim event.
        if (faults_.has_value() && !scenario_.freeze) {
            const TimeNs prev_sim_t = bi > 0 ? boundaries[bi - 1] : t - options_.epoch;
            fault::record_transitions(*faults_, orbit_time(prev_sim_t), orbit_time(t),
                                      -scenario_.start_offset);
        }
        const TimeNs t_next =
            bi + 1 < boundaries.size() ? boundaries[bi + 1] : options_.duration;
        const TimeNs dt = t_next - t;
        const double dt_s = ns_to_seconds(dt);
        EpochStats stats;
        stats.t = t;

        while (next_arrival < matrix_.size() &&
               matrix_.flows[next_arrival].arrival <= t) {
            const auto f = static_cast<std::uint32_t>(next_arrival);
            active.push_back(f);
            remaining[f] = matrix_.flows[f].size_bits;
            ++stats.arrivals;
            created_metric->inc();
            if (tracer.enabled(obs::TraceCategory::kFlow)) {
                tracer.emit(obs::make_record(
                    t, obs::TraceCategory::kFlow, "flow.arrive",
                    matrix_.flows[f].src_gs, matrix_.flows[f].dst_gs, f,
                    matrix_.flows[f].size_bits == kUnboundedSize
                        ? -1
                        : static_cast<std::int64_t>(matrix_.flows[f].size_bits)));
            }
            ++next_arrival;
        }
        stats.active = active.size();
        active_peak->set_max(static_cast<double>(active.size()));

        // Distinct destinations of the active flows, ascending.
        std::fill(dst_seen.begin(), dst_seen.end(), 0);
        for (const std::uint32_t f : active) {
            dst_seen[static_cast<std::size_t>(matrix_.flows[f].dst_gs)] = 1;
        }
        std::vector<int> dst_gs;
        for (int g = 0; g < num_gs; ++g) {
            if (dst_seen[static_cast<std::size_t>(g)]) dst_gs.push_back(g);
        }

        const route::ForwardingState& fstate = compute_epoch_forwarding(t, dst_gs);
        const EpochProblem& ep = build_problem(fstate, active, t);
        FairShareResult solution = solve_max_min(ep.problem);
        stats.solver_rounds = solution.rounds;
        stats.converged = solution.converged;
        summary.all_converged = summary.all_converged && solution.converged;

        for (std::size_t row = 0; row < ep.flow_of_problem.size(); ++row) {
            rate[ep.flow_of_problem[row]] = solution.rate_bps[row];
            stats.sum_rate_bps += solution.rate_bps[row];
        }
        for (const std::uint32_t f : ep.unreachable) {
            rate[f] = 0.0;
            ++summary.flows[f].unreachable_epochs;
        }
        stats.unreachable = ep.unreachable.size();
        unreachable_metric->inc(ep.unreachable.size());
        obs::recorder().record(obs::EventKind::kFlowResolve, t,
                               static_cast<std::int32_t>(active.size()),
                               static_cast<std::int32_t>(solution.rounds),
                               static_cast<std::int32_t>(ep.unreachable.size()), -1,
                               stats.sum_rate_bps);

        // Severed flows: had a path last segment, lost it this one. The
        // flow stalls at rate 0 (or reroutes transparently if Dijkstra
        // found an alternative, in which case it never appears here).
        if (faults_.has_value()) {
            for (const std::uint32_t f : ep.unreachable) {
                if (was_reachable[f] != 0) {
                    severed_metric->inc();
                    obs::recorder().record(obs::EventKind::kFlowSevered, t,
                                           matrix_.flows[f].src_gs,
                                           matrix_.flows[f].dst_gs,
                                           static_cast<std::int32_t>(f));
                    if (tracer.enabled(obs::TraceCategory::kFault)) {
                        tracer.emit(obs::make_record(
                            t, obs::TraceCategory::kFault, "fault.flow_severed",
                            matrix_.flows[f].src_gs, matrix_.flows[f].dst_gs, f));
                    }
                }
                was_reachable[f] = 0;
            }
            for (const std::uint32_t f : ep.flow_of_problem) was_reachable[f] = 1;
        }

        // Per-resource load (for the utilization map and overload check).
        if (options_.record_link_utilization) {
            std::vector<double> load(num_resources_, 0.0);
            for (std::size_t row = 0; row < ep.flow_of_problem.size(); ++row) {
                const double r = solution.rate_bps[row];
                for (const std::uint32_t l : ep.problem.links_of(row)) load[l] += r;
            }
            std::vector<double> per_isl(isls_.size(), 0.0);
            for (std::size_t i = 0; i < isls_.size(); ++i) {
                const double cap = ep.problem.capacity_bps[2 * i];
                if (cap > 0.0) {
                    per_isl[i] = std::max(load[2 * i], load[2 * i + 1]) / cap;
                }
                stats.max_link_utilization =
                    std::max(stats.max_link_utilization, per_isl[i]);
            }
            for (std::uint32_t r = gsl_base_; r < num_resources_; ++r) {
                const double cap = ep.problem.capacity_bps[r];
                if (cap > 0.0) {
                    stats.max_link_utilization =
                        std::max(stats.max_link_utilization, load[r] / cap);
                }
            }
            isl_utilization_.push_back(std::move(per_isl));
        }

        for (const auto& [flow_id, slot] : tracked_slot) {
            if (!done[flow_id] && flow_id < matrix_.size()) {
                const bool is_active =
                    std::binary_search(active.begin(), active.end(),
                                       static_cast<std::uint32_t>(flow_id));
                if (is_active) {
                    summary.tracked_series[slot].emplace_back(t, rate[flow_id]);
                }
            }
        }

        // Advance the fluid state to the next epoch boundary.
        {
            HYPATIA_PROFILE_SCOPE("flowsim.advance");
            double advanced_s = 0.0;
            while (true) {
                // Earliest mid-epoch completion (only consulted when
                // resolve_on_completion re-solves afterwards).
                double next_completion_s = kNoRateCap;
                if (options_.resolve_on_completion) {
                    for (const std::uint32_t f : active) {
                        if (remaining[f] != kUnboundedSize && rate[f] > 0.0) {
                            next_completion_s = std::min(
                                next_completion_s, remaining[f] / rate[f]);
                        }
                    }
                }
                const double window_s = dt_s - advanced_s;
                if (!options_.resolve_on_completion ||
                    next_completion_s >= window_s) {
                    for (const std::uint32_t f : active) {
                        FlowOutcome& outcome = summary.flows[f];
                        outcome.last_rate_bps = rate[f];
                        if (remaining[f] == kUnboundedSize) {
                            outcome.bits_sent += rate[f] * window_s;
                            continue;
                        }
                        const double sent = rate[f] * window_s;
                        if (rate[f] > 0.0 && remaining[f] <= sent) {
                            outcome.bits_sent += remaining[f];
                            const TimeNs at =
                                t + seconds_to_ns(advanced_s +
                                                  remaining[f] / rate[f]);
                            remaining[f] = 0.0;
                            complete_flow(f, at);
                            ++stats.completions;
                        } else {
                            outcome.bits_sent += sent;
                            remaining[f] -= sent;
                        }
                    }
                    break;
                }
                // Exact-fluid mode: advance to the completion instant,
                // retire finished flows and re-solve on the same paths.
                for (const std::uint32_t f : active) {
                    FlowOutcome& outcome = summary.flows[f];
                    outcome.last_rate_bps = rate[f];
                    const double sent = rate[f] * next_completion_s;
                    if (remaining[f] == kUnboundedSize) {
                        outcome.bits_sent += sent;
                        continue;
                    }
                    outcome.bits_sent += std::min(sent, remaining[f]);
                    remaining[f] = std::max(0.0, remaining[f] - sent);
                }
                advanced_s += next_completion_s;
                const TimeNs at = t + seconds_to_ns(advanced_s);
                for (const std::uint32_t f : active) {
                    if (!done[f] && remaining[f] <= 1e-6 &&
                        remaining[f] != kUnboundedSize) {
                        complete_flow(f, at);
                        ++stats.completions;
                    }
                }
                active.erase(std::remove_if(active.begin(), active.end(),
                                            [&](std::uint32_t f) { return done[f]; }),
                             active.end());
                build_problem(fstate, active, t);  // refills `ep`
                solution = solve_max_min(ep.problem);
                summary.all_converged = summary.all_converged && solution.converged;
                for (std::size_t row = 0; row < ep.flow_of_problem.size(); ++row) {
                    rate[ep.flow_of_problem[row]] = solution.rate_bps[row];
                }
                for (const std::uint32_t f : ep.unreachable) rate[f] = 0.0;
            }
        }
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](std::uint32_t f) { return done[f]; }),
                     active.end());

        epochs_metric->inc();
        if (tracer.enabled(obs::TraceCategory::kFlow)) {
            tracer.emit(obs::make_record(t, obs::TraceCategory::kFlow, "flow.epoch",
                                         -1, -1, 0,
                                         static_cast<std::int64_t>(stats.active),
                                         stats.sum_rate_bps));
        }
        summary.epochs.push_back(stats);
        if (options_.epoch_hook && !options_.epoch_hook(bi, t)) {
            return summary;
        }
    }
    // Normal completion: the run's outputs are in the caller's hands,
    // nothing left worth flushing on a later crash.
    if (ckpt_mgr != nullptr) ckpt_mgr->disarm();

    // Flows still active at the end contribute their final allocation to
    // the rate distribution (completed flows recorded at completion).
    for (const std::uint32_t f : active) {
        rate_kbps->record(static_cast<std::uint64_t>(rate[f] / 1e3));
    }
    return summary;
}

}  // namespace hypatia::flowsim
