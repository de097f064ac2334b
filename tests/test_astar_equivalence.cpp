// The A*/clustering equivalence suite (DESIGN.md "Full-sky routing"):
// goal-directed search must change the cost of nothing. With clustering
// off, HYPATIA_ROUTE_ALGO=astar must produce byte-identical forwarding
// CSV to Dijkstra at any thread count in both snapshot modes; multi-root
// clustered trees must be exact against a per-member Dijkstra oracle;
// the group (multi-shell) refresher must match from-scratch group
// snapshots; and the workspace buffers must be reused across epochs at
// 30k+ nodes (counted through this binary's global-new hook).
#include "src/routing/shortest_path.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/routing/forwarding.hpp"
#include "src/routing/multi_shell.hpp"
#include "src/routing/pair_sweep.hpp"
#include "src/routing/snapshot_refresh.hpp"
#include "src/topology/cities.hpp"
#include "src/topology/constellation.hpp"
#include "src/topology/isl.hpp"
#include "src/topology/mobility.hpp"
#include "src/topology/shell_group.hpp"
#include "src/util/thread_pool.hpp"

// --- Allocation counting hook (for the buffer-reuse pin) -------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hypatia::route {
namespace {

/// Sets an environment variable for the enclosing scope and restores the
/// previous value (or unsets) on destruction.
class EnvGuard {
  public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            had_old_ = true;
            old_ = old;
        }
        if (value != nullptr) {
            setenv(name, value, 1);
        } else {
            unsetenv(name);
        }
    }
    ~EnvGuard() {
        if (had_old_) {
            setenv(name_.c_str(), old_.c_str(), 1);
        } else {
            unsetenv(name_.c_str());
        }
    }

  private:
    std::string name_;
    bool had_old_ = false;
    std::string old_;
};

topo::ShellParams small_shell(const char* name, double alt_km, int orbits, int sats,
                              double incl_deg, double min_elev_deg) {
    topo::ShellParams p;
    p.name = name;
    p.altitude_km = alt_km;
    p.num_orbits = orbits;
    p.sats_per_orbit = sats;
    p.inclination_deg = incl_deg;
    p.min_elevation_deg = min_elev_deg;
    return p;
}

std::vector<orbit::GroundStation> some_cities(std::size_t n) {
    auto cities = topo::top100_cities();
    cities.erase(cities.begin() + static_cast<std::ptrdiff_t>(n), cities.end());
    return cities;
}

TEST(RouteAlgoEnv, ParsesAstarAndDefaultsToDijkstra) {
    {
        EnvGuard algo("HYPATIA_ROUTE_ALGO", nullptr);
        EXPECT_EQ(route_algo_from_env(), RouteAlgo::kDijkstra);
    }
    {
        EnvGuard algo("HYPATIA_ROUTE_ALGO", "astar");
        EXPECT_EQ(route_algo_from_env(), RouteAlgo::kAstar);
    }
    {
        EnvGuard algo("HYPATIA_ROUTE_ALGO", "bellman-ford");
        EXPECT_EQ(route_algo_from_env(), RouteAlgo::kDijkstra);
    }
}

TEST(DestClusterEnv, ParsesRadiusAndRejectsGarbage) {
    {
        EnvGuard km("HYPATIA_DEST_CLUSTER_KM", nullptr);
        EXPECT_EQ(dest_cluster_km_from_env(), 0.0);
    }
    {
        EnvGuard km("HYPATIA_DEST_CLUSTER_KM", "750.5");
        EXPECT_EQ(dest_cluster_km_from_env(), 750.5);
    }
    {
        EnvGuard km("HYPATIA_DEST_CLUSTER_KM", "-3");
        EXPECT_EQ(dest_cluster_km_from_env(), 0.0);
    }
    {
        EnvGuard km("HYPATIA_DEST_CLUSTER_KM", "lots");
        EXPECT_EQ(dest_cluster_km_from_env(), 0.0);
    }
}

TEST(ConstellationPresets, RegistryShapes) {
    const auto& full_sky = topo::full_sky_shells();
    ASSERT_EQ(full_sky.size(), 10u);
    int full_sky_sats = 0;
    for (const auto& s : full_sky) full_sky_sats += s.num_satellites();
    EXPECT_EQ(full_sky_sats, 9316);

    const auto& gen2 = topo::starlink_gen2_shells();
    ASSERT_EQ(gen2.size(), 9u);
    int gen2_sats = 0;
    for (const auto& s : gen2) {
        gen2_sats += s.num_satellites();
        EXPECT_EQ(s.min_elevation_deg, 25.0);
    }
    EXPECT_EQ(gen2_sats, 29988);

    EXPECT_EQ(topo::constellation_shells("full_sky").size(), 10u);
    EXPECT_EQ(topo::constellation_shells("starlink_gen2").size(), 9u);
    const auto single = topo::constellation_shells("kuiper_k1");
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].name, "kuiper_k1");
    EXPECT_THROW(topo::constellation_shells("starlink_gen3"),
                 std::out_of_range);
}

// Forwarding CSV under astar must match Dijkstra byte for byte at 1/2/8
// lanes in both snapshot modes (clustering off).
TEST(AstarEquivalence, CsvByteIdenticalAcrossThreadsAndModes) {
    EnvGuard cluster("HYPATIA_DEST_CLUSTER_KM", nullptr);
    const topo::Constellation constellation(
        small_shell("eq_s", 550.0, 10, 10, 53.0, 25.0), topo::default_epoch());
    const topo::SatelliteMobility mob(constellation);
    const auto isls = topo::build_isls(constellation, topo::IslPattern::kPlusGrid);
    const auto gses = some_cities(12);
    std::vector<int> dests;
    for (int gs = 0; gs < static_cast<int>(gses.size()); ++gs) {
        dests.push_back(constellation.num_satellites() + gs);
    }
    const TimeNs step = 100 * kNsPerMs;
    constexpr int kEpochs = 3;

    for (const char* mode : {"refresh", "rebuild"}) {
        EnvGuard mode_guard("HYPATIA_SNAPSHOT_MODE", mode);
        std::string reference;
        for (const char* algo : {"dijkstra", "astar"}) {
            EnvGuard algo_guard("HYPATIA_ROUTE_ALGO", algo);
            for (const std::size_t lanes : {1u, 2u, 8u}) {
                util::ThreadPool::set_global_threads(lanes);
                std::string csv;
                SnapshotRefresher refresher(mob, isls, gses);
                ForwardingState state;
                for (int e = 0; e < kEpochs; ++e) {
                    const TimeNs t = e * step;
                    if (snapshot_mode_from_env() == SnapshotMode::kRebuild) {
                        const Graph g = build_snapshot(mob, isls, gses, t);
                        compute_forwarding_into(g, dests, state);
                    } else {
                        compute_forwarding_into(refresher.refresh(t), dests, state);
                    }
                    csv += state.dump_csv();
                }
                if (reference.empty()) {
                    reference = csv;
                } else {
                    EXPECT_EQ(csv, reference)
                        << "mode=" << mode << " algo=" << algo << " lanes=" << lanes;
                }
            }
        }
        util::ThreadPool::set_global_threads(0);
    }
}

// Seeded multi-shell fuzz: random ground stations over a three-shell
// group (distinct altitudes, elevation cones and propagation laws),
// random epochs — astar path costs must equal Dijkstra's exactly, and
// the group refresher must match from-scratch group snapshots byte for
// byte in the same sweep.
TEST(AstarEquivalence, MultiShellGroupFuzz) {
    EnvGuard cluster("HYPATIA_DEST_CLUSTER_KM", nullptr);
    std::mt19937 rng(20260807);
    std::uniform_real_distribution<double> lat(-60.0, 60.0);
    std::uniform_real_distribution<double> lon(-180.0, 180.0);
    std::uniform_int_distribution<TimeNs> epoch_ms(0, 5000);

    const std::vector<topo::ShellParams> shells = {
        small_shell("fuzz_a", 550.0, 6, 6, 53.0, 25.0),
        small_shell("fuzz_b", 630.0, 5, 5, 51.9, 30.0),
        small_shell("fuzz_c", 1015.0, 4, 4, 98.98, 10.0),
    };
    const topo::ShellGroup group(shells, topo::default_epoch());

    for (int round = 0; round < 4; ++round) {
        std::vector<orbit::GroundStation> gses;
        for (int g = 0; g < 8; ++g) {
            gses.emplace_back(g, "fuzz_gs_" + std::to_string(g),
                              orbit::Geodetic{lat(rng), lon(rng), 0.0});
        }
        std::vector<int> dests;
        for (int g = 0; g < static_cast<int>(gses.size()); ++g) {
            dests.push_back(group.num_satellites() + g);
        }
        SnapshotOptions opts;
        SnapshotRefresher refresher(group, gses, opts);
        for (int e = 0; e < 3; ++e) {
            const TimeNs t = epoch_ms(rng) * kNsPerMs;
            const Graph rebuilt = build_group_snapshot(group, gses, t, opts);
            const Graph& refreshed = refresher.refresh(t);

            ForwardingState dijkstra_state;
            ForwardingState astar_state;
            {
                EnvGuard algo("HYPATIA_ROUTE_ALGO", "dijkstra");
                compute_forwarding_into(rebuilt, dests, dijkstra_state);
            }
            {
                EnvGuard algo("HYPATIA_ROUTE_ALGO", "astar");
                compute_forwarding_into(refreshed, dests, astar_state);
            }
            // Group refresher == group rebuild AND astar == dijkstra,
            // both pinned by one byte comparison (the CSV covers every
            // node's distance and next hop for every destination).
            EXPECT_EQ(astar_state.dump_csv(), dijkstra_state.dump_csv())
                << "round=" << round << " epoch=" << e << " t=" << t;
        }
    }
}

// Clustered multi-source trees must be *exact* nearest-member trees:
// each node's clustered distance equals the minimum of the per-member
// Dijkstra oracle distances, and every reachable node's path terminates
// at a cluster member.
TEST(AstarEquivalence, ClusteredTreesMatchNearestMemberOracle) {
    const topo::Constellation constellation(
        small_shell("cl_s", 550.0, 8, 8, 53.0, 25.0), topo::default_epoch());
    const topo::SatelliteMobility mob(constellation);
    const auto isls = topo::build_isls(constellation, topo::IslPattern::kPlusGrid);
    const auto gses = some_cities(16);
    const Graph graph = build_snapshot(mob, isls, gses, 0);
    std::vector<int> dests;
    for (int gs = 0; gs < static_cast<int>(gses.size()); ++gs) {
        dests.push_back(graph.gs_node(gs));
    }
    const double cluster_km = 2500.0;
    const auto clusters = cluster_destinations(graph, dests, cluster_km);
    ASSERT_LT(clusters.size(), dests.size()) << "radius too small to exercise clustering";

    ForwardingState clustered;
    {
        char radius[32];
        std::snprintf(radius, sizeof(radius), "%.1f", cluster_km);
        EnvGuard km("HYPATIA_DEST_CLUSTER_KM", radius);
        EnvGuard algo("HYPATIA_ROUTE_ALGO", "astar");
        compute_forwarding_into(graph, dests, clustered);
    }

    for (const auto& members : clusters) {
        std::vector<DestinationTree> oracle;
        for (const int m : members) oracle.push_back(dijkstra_to(graph, m));
        for (const int m : members) {
            const DestinationTree* tree = clustered.tree(m);
            ASSERT_NE(tree, nullptr);
            for (int node = 0; node < graph.num_nodes(); ++node) {
                double best = kInfDistance;
                for (const auto& o : oracle) {
                    best = std::min(best, o.distance_km[static_cast<std::size_t>(node)]);
                }
                EXPECT_EQ(tree->distance_km[static_cast<std::size_t>(node)], best)
                    << "member=" << m << " node=" << node;
                if (best != kInfDistance && best != 0.0) {
                    const auto path = extract_path(*tree, node);
                    ASSERT_FALSE(path.empty()) << "member=" << m << " node=" << node;
                    const int endpoint = path.back();
                    EXPECT_NE(std::find(members.begin(), members.end(), endpoint),
                              members.end())
                        << "path from node " << node << " ends at non-member "
                        << endpoint;
                }
            }
        }
    }
}

// Multi-root extract_path: paths of a two-root tree walk to whichever
// root is nearer and stay cost-consistent along the way.
TEST(AstarEquivalence, MultiRootExtractPathTerminatesAtARoot) {
    const topo::Constellation constellation(
        small_shell("mr_s", 550.0, 6, 6, 53.0, 25.0), topo::default_epoch());
    const topo::SatelliteMobility mob(constellation);
    const auto isls = topo::build_isls(constellation, topo::IslPattern::kPlusGrid);
    const auto gses = some_cities(6);
    const Graph graph = build_snapshot(mob, isls, gses, 0);
    graph.finalize();
    std::vector<std::int32_t> offsets;
    std::vector<Edge> edges;
    graph.export_merged_csr(offsets, edges);
    const GraphView view{offsets.data(), edges.data(), graph.relay_data(),
                         graph.node_positions_data(), graph.num_nodes()};
    const int roots[] = {graph.gs_node(0), graph.gs_node(3)};

    DijkstraWorkspace ws;
    DijkstraWorkspace::GoalSpec spec;
    spec.roots = roots;
    spec.num_roots = 2;
    DestinationTree tree;
    ws.run_goal(view, spec, tree);

    EXPECT_EQ(tree.distance_km[static_cast<std::size_t>(roots[0])], 0.0);
    EXPECT_EQ(tree.distance_km[static_cast<std::size_t>(roots[1])], 0.0);
    for (int node = 0; node < graph.num_nodes(); ++node) {
        const double d = tree.distance_km[static_cast<std::size_t>(node)];
        if (d == kInfDistance || d == 0.0) continue;
        const auto path = extract_path(tree, node);
        ASSERT_FALSE(path.empty()) << "node=" << node;
        EXPECT_TRUE(path.back() == roots[0] || path.back() == roots[1]);
        // Distances decrease strictly along the chain toward the root.
        for (std::size_t i = 1; i < path.size(); ++i) {
            EXPECT_LT(tree.distance_km[static_cast<std::size_t>(path[i])],
                      tree.distance_km[static_cast<std::size_t>(path[i - 1])]);
        }
    }
}

// PairSweeper samples under astar (early exit armed) must equal
// Dijkstra's, with fewer or equal queue pops.
TEST(AstarEquivalence, PairSweeperAstarMatchesDijkstra) {
    EnvGuard cluster("HYPATIA_DEST_CLUSTER_KM", nullptr);
    const std::vector<topo::ShellParams> shells = {
        small_shell("ps_a", 550.0, 8, 8, 53.0, 25.0),
        small_shell("ps_b", 630.0, 6, 6, 51.9, 30.0),
    };
    const topo::ShellGroup group(shells, topo::default_epoch());
    const auto gses = some_cities(10);
    std::vector<GsPair> pairs;
    for (int i = 0; i < 6; ++i) pairs.push_back({i, (i + 5) % 10});
    SweepOptions opts;
    opts.dest_cluster_km = 0.0;
    const TimeNs step = 100 * kNsPerMs;
    constexpr int kEpochs = 4;

    std::vector<std::vector<PairSweeper::Sample>> reference;
    std::uint64_t dijkstra_pops = 0;
    {
        EnvGuard algo("HYPATIA_ROUTE_ALGO", "dijkstra");
        PairSweeper sweeper(group, gses, pairs, opts);
        for (int e = 0; e < kEpochs; ++e) {
            reference.push_back(sweeper.step(e * step));
            dijkstra_pops += sweeper.last_step_pops();
        }
    }
    std::uint64_t astar_pops = 0;
    {
        EnvGuard algo("HYPATIA_ROUTE_ALGO", "astar");
        PairSweeper sweeper(group, gses, pairs, opts);
        for (int e = 0; e < kEpochs; ++e) {
            const auto& samples = sweeper.step(e * step);
            astar_pops += sweeper.last_step_pops();
            ASSERT_EQ(samples.size(), reference[static_cast<std::size_t>(e)].size());
            for (std::size_t p = 0; p < samples.size(); ++p) {
                EXPECT_EQ(samples[p].rtt_s,
                          reference[static_cast<std::size_t>(e)][p].rtt_s);
                EXPECT_EQ(samples[p].path,
                          reference[static_cast<std::size_t>(e)][p].path);
            }
        }
    }
    EXPECT_LE(astar_pops, dijkstra_pops);
}

// The buffer-reuse pin at full-sky scale: once warm, stepping the
// multi-shell epoch pipeline (refresh + fan-out) at 30k+ nodes must not
// allocate proportionally to the graph — the workspace, calendar queue,
// heuristic memo and refresher buffers are all recycled. The bound
// scales only with the pair count (path result vectors). Measured on a
// 1-lane pool: with more lanes, which lane's thread-local Dijkstra
// scratch grows during the measured epochs varies from run to run.
TEST(AstarEquivalence, WorkspaceBuffersReusedAtFullSkyScale) {
    EnvGuard cluster("HYPATIA_DEST_CLUSTER_KM", nullptr);
    EnvGuard algo("HYPATIA_ROUTE_ALGO", "astar");
    EnvGuard mode("HYPATIA_SNAPSHOT_MODE", "refresh");
    struct OneLane {
        OneLane() { util::ThreadPool::set_global_threads(1); }
        ~OneLane() { util::ThreadPool::set_global_threads(0); }
    } one_lane;
    const topo::ShellGroup group(topo::starlink_gen2_shells(), topo::default_epoch());
    const auto gses = some_cities(20);
    ASSERT_GE(group.num_satellites() + static_cast<int>(gses.size()), 30000);
    std::vector<GsPair> pairs;
    for (int i = 0; i < 4; ++i) pairs.push_back({i, i + 10});
    SweepOptions opts;
    opts.dest_cluster_km = 0.0;
    PairSweeper sweeper(group, gses, pairs, opts);
    const TimeNs step = 100 * kNsPerMs;
    TimeNs t = 0;
    for (int e = 0; e < 2; ++e, t += step) sweeper.step(t);  // warm

    constexpr int kMeasured = 3;
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int e = 0; e < kMeasured; ++e, t += step) sweeper.step(t);
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_LE(allocs / kMeasured, 64u + 8u * pairs.size())
        << "per-epoch allocations grew beyond the reuse bound (" << allocs << " over "
        << kMeasured << " epochs)";
}

}  // namespace
}  // namespace hypatia::route
