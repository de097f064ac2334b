// Max-min fair-share rate allocation by progressive filling (the classic
// water-filling construction, e.g. Bertsekas & Gallager §6.5.2): every
// active flow's rate rises from zero at the same speed; when a link
// saturates, all flows crossing it freeze at the current level and the
// remaining flows keep rising. The result is the unique max-min fair
// allocation: no flow's rate can be increased without decreasing the rate
// of a flow that is no larger.
//
// Flows may carry a finite rate cap (constant-bit-rate background load
// caps itself below the fair share); a capped flow freezes when the fill
// level reaches its cap, exactly like hitting a private bottleneck link.
//
// The solver is pure (no topology knowledge): callers present paths as
// index lists into a flat resource-capacity vector and put flows on
// paths. Many flows may share one path (the engine puts every flow of a
// (src, dst) ground-station pair on the pair's path), and the solver
// works per path wherever the flows of a path move together. The engine
// maps directed ISLs and GSL transmit devices onto the resources.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace hypatia::flowsim {

inline constexpr double kNoRateCap = std::numeric_limits<double>::infinity();

/// One allocation problem: `num_flows()` flows on `num_paths()` paths over
/// `capacity_bps.size()` resources. Path p crosses the resources
/// `path_links[path_offset[p] .. path_offset[p+1])`; flow f rides path
/// `flow_path[f]`. A flow on an empty path is only limited by its cap
/// (unreachable flows should not be submitted at all — give them rate 0
/// upstream).
struct FairShareProblem {
    std::vector<double> capacity_bps;
    std::vector<std::uint32_t> path_links;
    std::vector<std::uint32_t> path_offset{0};  // size num_paths() + 1
    std::vector<std::uint32_t> flow_path;       // size num_flows()
    std::vector<double> rate_cap_bps;           // empty = no flow capped

    std::size_t num_flows() const { return flow_path.size(); }
    std::size_t num_paths() const { return path_offset.size() - 1; }
    /// The resources crossed by flow `f`.
    std::span<const std::uint32_t> links_of(std::size_t f) const {
        const std::uint32_t p = flow_path[f];
        return {path_links.data() + path_offset[p], path_links.data() + path_offset[p + 1]};
    }

    /// Appends one path crossing `links` (indices into capacity_bps) and
    /// returns its id.
    std::uint32_t add_path(std::span<const std::uint32_t> links);
    /// Appends one flow on path `path`.
    void add_flow_on(std::uint32_t path, double cap = kNoRateCap);
    /// Appends a path crossing `links` and one flow on it.
    void add_flow(const std::vector<std::uint32_t>& links, double cap = kNoRateCap) {
        add_flow_on(add_path(links), cap);
    }
    /// Drops every path and flow; capacities and buffers are kept.
    void clear_flows();
};

struct FairShareResult {
    std::vector<double> rate_bps;  // per flow, parallel to the problem
    int rounds = 0;                // progressive-filling iterations
    /// False only if the iteration failed to freeze every flow within the
    /// theoretical bound (indicates a bug or NaN capacities); rates are
    /// still returned for the flows that froze.
    bool converged = true;
    /// Sum over rounds of the links that still carried rising flows when
    /// the round began: the links each round's scans visit.
    std::uint64_t live_links_scanned = 0;
};

/// Solves the max-min fair allocation. O(rounds * live links + total
/// path length + flows); rounds is bounded by the number of distinct
/// bottlenecks and caps.
FairShareResult solve_max_min(const FairShareProblem& problem);

/// True if `rates` is feasible: no resource carries more than
/// `capacity_bps * (1 + tolerance)`. Exposed for tests and CI assertions.
bool allocation_feasible(const FairShareProblem& problem,
                         const std::vector<double>& rates, double tolerance = 1e-9);

}  // namespace hypatia::flowsim
