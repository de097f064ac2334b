// Seeded randomized fuzz for the max-min solver.
//
// 1. Characterization: 100 seeds, each generating a random allocation
//    problem (random link counts and capacities, random path lengths, a
//    mix of capped / uncapped / empty-path flows), asserting the solver
//    converges, the allocation is feasible, and it satisfies the max-min
//    characterization — every flow is at its rate cap or crosses a
//    saturated link on which its rate is maximal. The max-min fair
//    allocation is unique, so any allocation passing the
//    characterization IS the right answer (up to rounding).
// 2. Bit-exact differential: thousands of seeded problems where many
//    flows share a few paths, solved by the production path-based solver
//    and by the historical per-flow progressive filling kept below as an
//    oracle. Rates must match byte for byte, rounds and convergence
//    exactly: this pins the rounding, not just the allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/flowsim/solver.hpp"

namespace hypatia::flowsim {
namespace {

void expect_max_min_fair(const FairShareProblem& p, const FairShareResult& r) {
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(r.rate_bps.size(), p.num_flows());
    ASSERT_TRUE(allocation_feasible(p, r.rate_bps, 1e-7));
    std::vector<double> load(p.capacity_bps.size(), 0.0);
    std::vector<double> max_rate_on(p.capacity_bps.size(), 0.0);
    for (std::size_t f = 0; f < p.num_flows(); ++f) {
        ASSERT_TRUE(std::isfinite(r.rate_bps[f]));
        ASSERT_GE(r.rate_bps[f], 0.0);
        for (const std::uint32_t l : p.links_of(f)) {
            load[l] += r.rate_bps[f];
            max_rate_on[l] = std::max(max_rate_on[l], r.rate_bps[f]);
        }
    }
    for (std::size_t f = 0; f < p.num_flows(); ++f) {
        const double cap = p.rate_cap_bps.empty() ? kNoRateCap : p.rate_cap_bps[f];
        if (cap != kNoRateCap && r.rate_bps[f] >= cap - 1e-7) continue;  // at cap
        // An uncapped flow with no links is unbounded by construction;
        // the generator never emits those (empty paths always get a cap).
        bool bottlenecked = false;
        for (const std::uint32_t l : p.links_of(f)) {
            const bool saturated = load[l] >= p.capacity_bps[l] - 1e-6;
            const bool maximal = r.rate_bps[f] >= max_rate_on[l] - 1e-6;
            bottlenecked = bottlenecked || (saturated && maximal);
        }
        EXPECT_TRUE(bottlenecked) << "flow " << f << " rate " << r.rate_bps[f]
                                  << " is neither capped nor bottlenecked";
    }
}

FairShareProblem random_problem(unsigned seed) {
    std::mt19937_64 gen(seed);
    FairShareProblem p;
    // Link counts span degenerate (1 link) through engine-scale (hundreds,
    // like an epoch's touched ISL/GSL resources); capacities span five
    // orders of magnitude so fill levels cross many bottlenecks.
    const std::size_t num_links = 1 + gen() % 300;
    std::uniform_real_distribution<double> cap_exp(0.0, 5.0);
    for (std::size_t l = 0; l < num_links; ++l) {
        p.capacity_bps.push_back(std::pow(10.0, cap_exp(gen)));
    }
    const std::size_t num_flows = 1 + gen() % 200;
    std::uniform_real_distribution<double> rate_cap(0.1, 500.0);
    for (std::size_t f = 0; f < num_flows; ++f) {
        std::vector<std::uint32_t> links;
        if (gen() % 20 != 0) {  // 1 in 20 flows has an empty path
            const std::size_t path_len = 1 + gen() % 12;
            for (std::size_t h = 0; h < path_len; ++h) {
                const auto l = static_cast<std::uint32_t>(gen() % num_links);
                if (std::find(links.begin(), links.end(), l) == links.end()) {
                    links.push_back(l);
                }
            }
        }
        const bool capped = links.empty() || gen() % 3 == 0;
        p.add_flow(links, capped ? rate_cap(gen) : kNoRateCap);
    }
    return p;
}

TEST(MaxMinSolverFuzz, HundredSeededRandomProblemsAreMaxMinFair) {
    for (unsigned seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const FairShareProblem p = random_problem(seed);
        const FairShareResult r = solve_max_min(p);
        expect_max_min_fair(p, r);
        // The solver is a pure function: re-solving the same problem must
        // reproduce the allocation bit-for-bit.
        const FairShareResult again = solve_max_min(p);
        ASSERT_EQ(r.rounds, again.rounds);
        for (std::size_t f = 0; f < p.num_flows(); ++f) {
            ASSERT_EQ(r.rate_bps[f], again.rate_bps[f]);
        }
    }
}

TEST(MaxMinSolverFuzz, SingleSaturatedLinkSharesExactly) {
    // A directed fuzz variant with a known closed form: n uncapped flows
    // over one link of capacity c must each get exactly c / n.
    std::mt19937_64 gen(42);
    for (int instance = 0; instance < 50; ++instance) {
        FairShareProblem p;
        const double c = 1.0 + static_cast<double>(gen() % 10'000);
        p.capacity_bps = {c};
        const std::size_t n = 1 + gen() % 64;
        for (std::size_t f = 0; f < n; ++f) p.add_flow({0});
        const auto r = solve_max_min(p);
        ASSERT_TRUE(r.converged);
        for (std::size_t f = 0; f < n; ++f) {
            ASSERT_NEAR(r.rate_bps[f], c / static_cast<double>(n), 1e-9 * c);
        }
    }
}

// ------------------------------------------------------ per-flow oracle

// The per-flow progressive filling the solver used before it worked on
// shared paths: one reverse index entry per (flow, link) crossing, each
// frozen flow's rate added to every crossed link one flow at a time, and
// two scans of every link per round. Kept verbatim (minus metrics, plus a
// count of the links each round finds live) as the reference the
// production solver must reproduce bit for bit.
FairShareResult oracle_solve(const FairShareProblem& p) {
    std::vector<std::uint32_t> flow_links;
    std::vector<std::uint32_t> flow_offset{0};
    for (std::size_t f = 0; f < p.num_flows(); ++f) {
        const auto links = p.links_of(f);
        flow_links.insert(flow_links.end(), links.begin(), links.end());
        flow_offset.push_back(static_cast<std::uint32_t>(flow_links.size()));
    }

    const std::size_t num_flows = p.num_flows();
    const std::size_t num_links = p.capacity_bps.size();
    FairShareResult result;
    result.rate_bps.assign(num_flows, 0.0);
    if (num_flows == 0) return result;

    const auto flow_cap = [&p](std::size_t f) {
        return p.rate_cap_bps.empty() ? kNoRateCap : p.rate_cap_bps[f];
    };

    std::vector<std::uint32_t> link_degree(num_links, 0);
    for (const std::uint32_t l : flow_links) ++link_degree[l];
    std::vector<std::uint32_t> link_offset(num_links + 1, 0);
    for (std::size_t l = 0; l < num_links; ++l) {
        link_offset[l + 1] = link_offset[l] + link_degree[l];
    }
    std::vector<std::uint32_t> link_flows(flow_links.size());
    {
        std::vector<std::uint32_t> cursor(link_offset.begin(), link_offset.end() - 1);
        for (std::size_t f = 0; f < num_flows; ++f) {
            for (std::uint32_t i = flow_offset[f]; i < flow_offset[f + 1]; ++i) {
                link_flows[cursor[flow_links[i]]++] = static_cast<std::uint32_t>(f);
            }
        }
    }

    std::vector<std::uint32_t> unfrozen_on(link_degree);
    std::vector<double> frozen_load(num_links, 0.0);
    std::vector<char> frozen(num_flows, 0);
    std::size_t num_unfrozen = num_flows;

    const auto freeze = [&](std::size_t f, double rate) {
        frozen[f] = 1;
        result.rate_bps[f] = rate;
        --num_unfrozen;
        for (std::uint32_t i = flow_offset[f]; i < flow_offset[f + 1]; ++i) {
            const std::uint32_t l = flow_links[i];
            frozen_load[l] += rate;
            --unfrozen_on[l];
        }
    };

    for (std::size_t f = 0; f < num_flows; ++f) {
        if (flow_offset[f] == flow_offset[f + 1]) freeze(f, flow_cap(f));
    }

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

    const int max_rounds = static_cast<int>(num_flows) + 1;
    while (num_unfrozen > 0) {
        if (++result.rounds > max_rounds) {
            result.converged = false;
            break;
        }
        double level = kNoRateCap;
        for (std::size_t l = 0; l < num_links; ++l) {
            if (unfrozen_on[l] == 0) continue;
            ++result.live_links_scanned;
            const double headroom = std::max(0.0, p.capacity_bps[l] - frozen_load[l]);
            level = std::min(level, headroom / unfrozen_on[l]);
        }
        while (next_capped < by_cap.size() && frozen[by_cap[next_capped]]) {
            ++next_capped;
        }
        const double next_cap = next_capped < by_cap.size()
                                    ? flow_cap(by_cap[next_capped])
                                    : kNoRateCap;
        if (next_cap != kNoRateCap && next_cap <= level) {
            while (next_capped < by_cap.size() &&
                   (frozen[by_cap[next_capped]] ||
                    flow_cap(by_cap[next_capped]) <= next_cap)) {
                const std::uint32_t f = by_cap[next_capped++];
                if (!frozen[f]) freeze(f, flow_cap(f));
            }
            continue;
        }
        if (level == kNoRateCap) {
            for (std::size_t f = 0; f < num_flows; ++f) {
                if (!frozen[f]) freeze(f, kNoRateCap);
            }
            break;
        }
        const double threshold = level + 1e-12 * std::max(1.0, level);
        bool froze_any = false;
        for (std::size_t l = 0; l < num_links; ++l) {
            if (unfrozen_on[l] == 0) continue;
            const double headroom = std::max(0.0, p.capacity_bps[l] - frozen_load[l]);
            if (headroom / unfrozen_on[l] > threshold) continue;
            for (std::uint32_t i = link_offset[l]; i < link_offset[l + 1]; ++i) {
                const std::uint32_t f = link_flows[i];
                if (!frozen[f]) {
                    freeze(f, level);
                    froze_any = true;
                }
            }
        }
        if (!froze_any) {
            result.converged = false;
            break;
        }
    }
    return result;
}

void expect_matches_oracle(const FairShareProblem& p) {
    const FairShareResult want = oracle_solve(p);
    const FairShareResult got = solve_max_min(p);
    ASSERT_EQ(got.rounds, want.rounds);
    ASSERT_EQ(got.converged, want.converged);
    // The solver scans only the links that still carry rising flows.
    ASSERT_EQ(got.live_links_scanned, want.live_links_scanned);
    ASSERT_EQ(got.rate_bps.size(), want.rate_bps.size());
    ASSERT_EQ(0, std::memcmp(got.rate_bps.data(), want.rate_bps.data(),
                             want.rate_bps.size() * sizeof(double)))
        << "first differing flow: "
        << std::mismatch(got.rate_bps.begin(), got.rate_bps.end(), want.rate_bps.begin())
                   .first -
               got.rate_bps.begin();
}

// Many flows over a few shared paths, built to hit the solver's
// numerically delicate spots: tied bottlenecks (capacities drawn from a
// few values that divide evenly, some nudged inside the tie-merge
// epsilon), zero and 1e9 capacities, empty paths,
// paths crossing a link twice, duplicate caps, and caps equal to a link's
// fair share (so a cap and a level tie).
FairShareProblem shared_path_problem(unsigned seed) {
    std::mt19937_64 gen(seed);
    const auto pick = [&gen](std::size_t n) { return static_cast<std::size_t>(gen() % n); };
    FairShareProblem p;
    const std::size_t num_links = 1 + pick(pick(4) == 0 ? 300 : 24);
    static constexpr double kTiedCaps[] = {6.0, 12.0, 24.0, 60.0, 120.0};
    for (std::size_t l = 0; l < num_links; ++l) {
        const std::size_t kind = pick(20);
        double cap;
        if (kind == 0) {
            cap = 0.0;
        } else if (kind == 1) {
            cap = 1e9;
        } else if (kind < 8) {
            cap = kTiedCaps[pick(std::size(kTiedCaps))];
        } else if (kind < 10) {
            // Within the solver's 1e-12 tie-merge epsilon of a tied value:
            // which links merge then depends on the scan order.
            cap = kTiedCaps[pick(std::size(kTiedCaps))] *
                  (1.0 + 1e-13 * static_cast<double>(pick(20)));
        } else {
            cap = std::pow(10.0, std::uniform_real_distribution<double>(0.0, 5.0)(gen));
        }
        p.capacity_bps.push_back(cap);
    }

    const std::size_t num_paths = 1 + pick(12);
    for (std::size_t q = 0; q < num_paths; ++q) {
        std::vector<std::uint32_t> links;
        if (pick(10) != 0) {  // 1 in 10 paths is empty
            const std::size_t len = 1 + pick(8);
            for (std::size_t h = 0; h < len; ++h) {
                links.push_back(static_cast<std::uint32_t>(pick(num_links)));
            }
            if (pick(10) != 0) {  // most paths cross each link once
                std::sort(links.begin(), links.end());
                links.erase(std::unique(links.begin(), links.end()), links.end());
                std::shuffle(links.begin(), links.end(), gen);
            }
        }
        p.add_path(links);
    }

    static constexpr double kDuplicateCaps[] = {1.0, 2.5, 3.0, 5.0, 10.0};
    const std::size_t num_flows = 1 + pick(pick(3) == 0 ? 2000 : 200);
    const bool any_caps = pick(4) != 0;
    for (std::size_t f = 0; f < num_flows; ++f) {
        // Skewed toward low path ids, so a few paths carry most flows.
        const auto q = static_cast<std::uint32_t>(
            std::min(pick(num_paths), pick(num_paths)));
        double cap = kNoRateCap;
        const auto links = std::span<const std::uint32_t>(
            p.path_links.data() + p.path_offset[q],
            p.path_links.data() + p.path_offset[q + 1]);
        if (links.empty() || (any_caps && pick(3) == 0)) {
            const std::size_t kind = pick(3);
            if (kind == 0) {
                cap = kDuplicateCaps[pick(std::size(kDuplicateCaps))];
            } else if (kind == 1 && !links.empty()) {
                // Ties with the level at which this link would saturate if
                // it were the only constraint.
                cap = p.capacity_bps[links[pick(links.size())]] /
                      static_cast<double>(1 + pick(8));
            } else {
                cap = std::uniform_real_distribution<double>(0.1, 500.0)(gen);
            }
        }
        p.add_flow_on(q, cap);
    }
    // A few flows with private paths, through the one-call API.
    for (std::size_t extra = pick(4); extra > 0; --extra) {
        p.add_flow({static_cast<std::uint32_t>(pick(num_links))});
    }
    return p;
}

TEST(MaxMinSolverDifferential, SharedPathsMatchPerFlowOracleBitForBit) {
    std::size_t tied_rounds = 0;
    for (unsigned seed = 1; seed <= 3000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const FairShareProblem p = shared_path_problem(seed);
        ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(p));
        tied_rounds += static_cast<std::size_t>(solve_max_min(p).rounds) < p.num_flows();
    }
    // Most problems freeze several flows per round (the shared-path case
    // this differential exists for).
    EXPECT_GT(tied_rounds, 2500u);
}

// Every link's fair share within the 1e-12 tie-merge epsilon of every
// other's: which bottlenecks merge into one round then depends on the
// order in which a round visits links and sees the updates earlier
// freezes made, so this pins that order.
FairShareProblem near_tie_problem(unsigned seed) {
    std::mt19937_64 gen(seed);
    const auto pick = [&gen](std::size_t n) { return static_cast<std::size_t>(gen() % n); };
    FairShareProblem p;
    const std::size_t num_links = 2 + pick(10);
    for (std::size_t l = 0; l < num_links; ++l) {
        p.capacity_bps.push_back(12.0 * (1.0 + 1e-13 * static_cast<double>(pick(20))));
    }
    const std::size_t num_paths = 2 + pick(6);
    for (std::size_t q = 0; q < num_paths; ++q) {
        std::vector<std::uint32_t> links;
        for (std::size_t h = 1 + pick(3); h > 0; --h) {
            const auto l = static_cast<std::uint32_t>(pick(num_links));
            if (std::find(links.begin(), links.end(), l) == links.end()) links.push_back(l);
        }
        p.add_path(links);
    }
    for (std::size_t f = 2 + pick(40); f > 0; --f) {
        p.add_flow_on(static_cast<std::uint32_t>(pick(num_paths)));
    }
    return p;
}

TEST(MaxMinSolverDifferential, NearTiedBottlenecksMatchPerFlowOracle) {
    for (unsigned seed = 1; seed <= 2000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(near_tie_problem(seed)));
    }
}

TEST(MaxMinSolverDifferential, EmptyProblemAndPathsWithoutFlows) {
    FairShareProblem p;
    p.capacity_bps = {10.0, 0.0};
    EXPECT_EQ(solve_max_min(p).rate_bps.size(), 0u);
    p.add_path(std::vector<std::uint32_t>{0, 1});  // no flow rides it
    const auto q = p.add_path(std::vector<std::uint32_t>{0});
    p.add_flow_on(q);
    p.add_flow_on(q);
    const FairShareResult got = solve_max_min(p);
    const FairShareResult want = oracle_solve(p);
    ASSERT_EQ(got.rate_bps, want.rate_bps);
    EXPECT_EQ(got.rate_bps[0], 5.0);
    EXPECT_EQ(got.rounds, want.rounds);
}

}  // namespace
}  // namespace hypatia::flowsim
