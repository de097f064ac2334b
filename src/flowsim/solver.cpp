#include "src/flowsim/solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/obs/observability.hpp"

namespace hypatia::flowsim {

std::uint32_t FairShareProblem::add_path(std::span<const std::uint32_t> links) {
    path_links.insert(path_links.end(), links.begin(), links.end());
    path_offset.push_back(static_cast<std::uint32_t>(path_links.size()));
    return static_cast<std::uint32_t>(num_paths() - 1);
}

void FairShareProblem::add_flow_on(std::uint32_t path, double cap) {
    flow_path.push_back(path);
    if (cap != kNoRateCap || !rate_cap_bps.empty()) {
        // Lazily materialize: backfill earlier uncapped flows on first cap.
        rate_cap_bps.resize(num_flows() - 1, kNoRateCap);
        rate_cap_bps.push_back(cap);
    }
}

void FairShareProblem::clear_flows() {
    path_links.clear();
    path_offset.assign(1, 0);
    flow_path.clear();
    rate_cap_bps.clear();
}

// Bit-exactness. Progressive filling adds a frozen flow's rate to
// `frozen_load` of every link it crosses. In a level round every frozen
// flow gets the same value `level`, and in a cap round every frozen flow
// gets the same cap (the round freezes exactly the flows whose cap equals
// the smallest remaining one). A link's load after a round is therefore
// its load before plus `level` added once per newly frozen crossing, in
// any order: the *set* of flows frozen decides each sum, not their order.
// That is what lets this solver freeze a path's rising flows together and
// still match the per-flow construction bit for bit — as long as `level`
// is added one flow at a time (k * level rounds differently).
FairShareResult solve_max_min(const FairShareProblem& p) {
    HYPATIA_PROFILE_SCOPE("flowsim.solve");
    static obs::Counter* const runs_metric =
        &obs::metrics().counter("flowsim.solver_runs");
    static obs::Counter* const rounds_metric =
        &obs::metrics().counter("flowsim.solver_rounds");
    runs_metric->inc();

    const std::size_t num_flows = p.num_flows();
    const std::size_t num_paths = p.num_paths();
    const std::size_t num_links = p.capacity_bps.size();
    FairShareResult result;
    result.rate_bps.assign(num_flows, 0.0);
    if (num_flows == 0) return result;

    const auto flow_cap = [&p](std::size_t f) {
        return p.rate_cap_bps.empty() ? kNoRateCap : p.rate_cap_bps[f];
    };

    // Flows of each path (CSR, ascending flow id). `rising[q]` counts the
    // flows of path q that are not frozen yet.
    std::vector<std::uint32_t> path_flow_offset(num_paths + 1, 0);
    for (const std::uint32_t q : p.flow_path) ++path_flow_offset[q + 1];
    std::partial_sum(path_flow_offset.begin(), path_flow_offset.end(),
                     path_flow_offset.begin());
    std::vector<std::uint32_t> path_flows(num_flows);
    {
        std::vector<std::uint32_t> cursor(path_flow_offset.begin(),
                                          path_flow_offset.end() - 1);
        for (std::size_t f = 0; f < num_flows; ++f) {
            path_flows[cursor[p.flow_path[f]]++] = static_cast<std::uint32_t>(f);
        }
    }
    std::vector<std::uint32_t> rising(num_paths);
    for (std::size_t q = 0; q < num_paths; ++q) {
        rising[q] = path_flow_offset[q + 1] - path_flow_offset[q];
    }

    // Paths crossing each link (CSR, ascending path id; a path crossing a
    // link twice is listed twice), and the rising flows on each link.
    std::vector<std::uint32_t> link_path_offset(num_links + 1, 0);
    std::vector<std::uint32_t> unfrozen_on(num_links, 0);
    for (std::size_t q = 0; q < num_paths; ++q) {
        for (std::uint32_t i = p.path_offset[q]; i < p.path_offset[q + 1]; ++i) {
            ++link_path_offset[p.path_links[i] + 1];
            unfrozen_on[p.path_links[i]] += rising[q];
        }
    }
    std::partial_sum(link_path_offset.begin(), link_path_offset.end(),
                     link_path_offset.begin());
    std::vector<std::uint32_t> link_paths(p.path_links.size());
    {
        std::vector<std::uint32_t> cursor(link_path_offset.begin(),
                                          link_path_offset.end() - 1);
        for (std::size_t q = 0; q < num_paths; ++q) {
            for (std::uint32_t i = p.path_offset[q]; i < p.path_offset[q + 1]; ++i) {
                link_paths[cursor[p.path_links[i]]++] = static_cast<std::uint32_t>(q);
            }
        }
    }

    std::vector<double> frozen_load(num_links, 0.0);  // bps held by frozen flows
    std::vector<char> frozen(num_flows, 0);
    std::size_t num_unfrozen = num_flows;

    // Freezes `f` at `rate`, releasing its claim on every crossed link.
    const auto freeze_flow = [&](std::size_t f, double rate) {
        frozen[f] = 1;
        result.rate_bps[f] = rate;
        --num_unfrozen;
        const std::uint32_t q = p.flow_path[f];
        --rising[q];
        for (std::uint32_t i = p.path_offset[q]; i < p.path_offset[q + 1]; ++i) {
            const std::uint32_t l = p.path_links[i];
            frozen_load[l] += rate;
            --unfrozen_on[l];
        }
    };
    // Freezes every rising flow of path `q` at `level`: the same link
    // updates as freezing them one by one (see the note above).
    const auto freeze_path = [&](std::uint32_t q, double level) {
        const std::uint32_t k = rising[q];
        for (std::uint32_t i = path_flow_offset[q]; i < path_flow_offset[q + 1]; ++i) {
            const std::uint32_t f = path_flows[i];
            if (!frozen[f]) {
                frozen[f] = 1;
                result.rate_bps[f] = level;
            }
        }
        num_unfrozen -= k;
        rising[q] = 0;
        for (std::uint32_t i = p.path_offset[q]; i < p.path_offset[q + 1]; ++i) {
            const std::uint32_t l = p.path_links[i];
            double acc = frozen_load[l];
            for (std::uint32_t j = 0; j < k; ++j) acc += level;
            frozen_load[l] = acc;
            unfrozen_on[l] -= k;
        }
    };

    // Flows with no resource constraint are limited by their cap alone.
    for (std::size_t f = 0; f < num_flows; ++f) {
        const std::uint32_t q = p.flow_path[f];
        if (p.path_offset[q] == p.path_offset[q + 1]) freeze_flow(f, flow_cap(f));
    }

    // Capped flows in ascending cap order: the next cap to bind is always
    // at `next_capped` (already-frozen entries are skipped on the way).
    std::vector<std::uint32_t> by_cap;
    if (!p.rate_cap_bps.empty()) {
        for (std::size_t f = 0; f < num_flows; ++f) {
            if (!frozen[f] && flow_cap(f) != kNoRateCap) {
                by_cap.push_back(static_cast<std::uint32_t>(f));
            }
        }
        std::sort(by_cap.begin(), by_cap.end(), [&](std::uint32_t a, std::uint32_t b) {
            return flow_cap(a) < flow_cap(b);
        });
    }
    std::size_t next_capped = 0;

    // Links that still carry rising flows, ascending. Each round first
    // drops the links that emptied, so both scans below visit exactly the
    // links a full scan would not skip, in the same order.
    std::vector<std::uint32_t> live;
    for (std::size_t l = 0; l < num_links; ++l) {
        if (unfrozen_on[l] != 0) live.push_back(static_cast<std::uint32_t>(l));
    }
    const auto share = [&](std::uint32_t l) {
        return std::max(0.0, p.capacity_bps[l] - frozen_load[l]) / unfrozen_on[l];
    };

    // Every round freezes at least one flow, so `num_flows` rounds is a
    // hard ceiling; hitting it means a numeric anomaly (NaN capacity).
    const int max_rounds = static_cast<int>(num_flows) + 1;
    while (num_unfrozen > 0) {
        if (++result.rounds > max_rounds) {
            result.converged = false;
            break;
        }
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](std::uint32_t l) { return unfrozen_on[l] == 0; }),
                   live.end());
        result.live_links_scanned += live.size();
        // The level at which the next link saturates...
        double level = kNoRateCap;
        for (const std::uint32_t l : live) level = std::min(level, share(l));
        // ...unless a rate cap binds first.
        while (next_capped < by_cap.size() && frozen[by_cap[next_capped]]) {
            ++next_capped;
        }
        const double next_cap = next_capped < by_cap.size()
                                    ? flow_cap(by_cap[next_capped])
                                    : kNoRateCap;
        if (next_cap != kNoRateCap && next_cap <= level) {
            // Freeze every remaining flow whose cap binds at this level.
            while (next_capped < by_cap.size() &&
                   (frozen[by_cap[next_capped]] ||
                    flow_cap(by_cap[next_capped]) <= next_cap)) {
                const std::uint32_t f = by_cap[next_capped++];
                if (!frozen[f]) freeze_flow(f, flow_cap(f));
            }
            continue;
        }
        if (level == kNoRateCap) {
            // Only uncapped flows over unconstrained links remain.
            for (std::size_t f = 0; f < num_flows; ++f) {
                if (!frozen[f]) freeze_flow(f, kNoRateCap);
            }
            break;
        }
        // Freeze everything crossing a link that saturates at `level`
        // (a tiny relative epsilon merges numerically-tied bottlenecks).
        // Freezing updates later links of this same scan, exactly as the
        // per-flow construction does.
        const double threshold = level + 1e-12 * std::max(1.0, level);
        bool froze_any = false;
        for (const std::uint32_t l : live) {
            if (unfrozen_on[l] == 0 || share(l) > threshold) continue;
            for (std::uint32_t i = link_path_offset[l]; i < link_path_offset[l + 1]; ++i) {
                const std::uint32_t q = link_paths[i];
                if (rising[q] != 0) {
                    freeze_path(q, level);
                    froze_any = true;
                }
            }
        }
        if (!froze_any) {  // NaN capacities can make every share incomparable
            result.converged = false;
            break;
        }
    }
    rounds_metric->inc(static_cast<std::uint64_t>(result.rounds));
    return result;
}

bool allocation_feasible(const FairShareProblem& p, const std::vector<double>& rates,
                         double tolerance) {
    std::vector<double> load(p.capacity_bps.size(), 0.0);
    for (std::size_t f = 0; f < p.num_flows(); ++f) {
        for (const std::uint32_t l : p.links_of(f)) load[l] += rates[f];
    }
    for (std::size_t l = 0; l < load.size(); ++l) {
        const double cap = p.capacity_bps[l];
        if (load[l] > cap + tolerance * std::max(1.0, cap)) return false;
    }
    return true;
}

}  // namespace hypatia::flowsim
