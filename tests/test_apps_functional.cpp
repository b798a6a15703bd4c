/**
 * @file
 * Functional validation: every application, run through the Session on a
 * small graph across the full configuration space, must produce results
 * matching the sequential CPU references (exactly for discrete outputs,
 * within tolerance for floating-point ones). MIS and CLR are checked at
 * seed 0 and at a nonzero seed. A push, a pull and a CC configuration
 * also run on 16-lane warps, so the kernels' lane tiles are exercised
 * below their full width.
 */

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "apps/reference.hpp"
#include "graph/generator.hpp"

namespace gga {
namespace {

const CsrGraph&
smallGraph()
{
    static const CsrGraph g = [] {
        GenSpec spec;
        spec.name = "small";
        spec.numVertices = 800;
        spec.numDirectedEdges = 4000;
        spec.dist = DegreeDist::PowerLaw;
        spec.p1 = 2.3;
        spec.p2 = 1.5;
        spec.maxDegree = 64;
        spec.fracIntraBlock = 0.3;
        spec.seed = 99;
        return generateGraph(spec);
    }();
    return g;
}

/** A configuration and the warp width it runs at. */
struct Point
{
    const char* cfg;
    std::uint32_t warpSize = 32;
};

void
PrintTo(const Point& p, std::ostream* os)
{
    *os << p.cfg << '@' << p.warpSize;
}

RunOutcome
simulate(AppId app, const Point& p, std::uint64_t seed = 0)
{
    SimParams params;
    params.warpSize = p.warpSize;
    Session session;
    return session.run(RunPlan{}
                           .app(app)
                           .graph(smallGraph(), "small")
                           .config(p.cfg)
                           .seed(seed)
                           .params(params));
}

class AllConfigs : public ::testing::TestWithParam<Point>
{
};

/** MIS and CLR hash their vertex priorities with the run's seed. */
class SeededConfigs
    : public ::testing::TestWithParam<std::tuple<Point, std::uint64_t>>
{
};

class DynConfigs : public ::testing::TestWithParam<Point>
{
};

TEST_P(AllConfigs, PrMatchesReference)
{
    const CsrGraph& g = smallGraph();
    const RunOutcome out = simulate(AppId::Pr, GetParam());
    ASSERT_NE(out.pr(), nullptr);
    const std::vector<float>& ranks = out.pr()->ranks;
    const std::vector<double> expect = ref::pagerank(g, kPrIterations);
    ASSERT_EQ(ranks.size(), expect.size());
    for (std::size_t v = 0; v < ranks.size(); ++v) {
        EXPECT_NEAR(ranks[v], expect[v],
                    std::max(1e-6, 1e-3 * expect[v]))
            << "vertex " << v;
    }
}

TEST_P(AllConfigs, SsspMatchesDijkstra)
{
    const RunOutcome out = simulate(AppId::Sssp, GetParam());
    ASSERT_NE(out.sssp(), nullptr);
    ASSERT_EQ(out.sssp()->dist, ref::dijkstra(smallGraph(), 0));
}

TEST_P(SeededConfigs, MisIsValidAndConfigInvariant)
{
    const auto& [cfg, seed] = GetParam();
    const RunOutcome out = simulate(AppId::Mis, cfg, seed);
    ASSERT_NE(out.mis(), nullptr);
    EXPECT_TRUE(ref::validMis(smallGraph(), out.mis()->state));

    // The round structure is deterministic, so at one seed every
    // configuration and warp width must produce the identical set.
    const RunOutcome baseline = simulate(AppId::Mis, {"TG0"}, seed);
    ASSERT_NE(baseline.mis(), nullptr);
    EXPECT_EQ(out.mis()->state, baseline.mis()->state);
}

TEST_P(SeededConfigs, ClrIsProperColoring)
{
    const auto& [cfg, seed] = GetParam();
    const RunOutcome out = simulate(AppId::Clr, cfg, seed);
    ASSERT_NE(out.clr(), nullptr);
    EXPECT_TRUE(ref::validColoring(smallGraph(), out.clr()->colors));
}

TEST_P(AllConfigs, BcMatchesBrandes)
{
    const RunOutcome out = simulate(AppId::Bc, GetParam());
    ASSERT_NE(out.bc(), nullptr);
    const BcOutput& bc = *out.bc();
    const ref::BcRef expect = ref::brandes(smallGraph(), 0);
    ASSERT_EQ(bc.level, expect.level);
    for (std::size_t v = 0; v < bc.delta.size(); ++v) {
        EXPECT_NEAR(bc.sigma[v], expect.sigma[v],
                    1e-9 + 1e-9 * expect.sigma[v])
            << "sigma of vertex " << v;
        EXPECT_NEAR(bc.delta[v], expect.delta[v],
                    1e-9 + 1e-9 * std::abs(expect.delta[v]))
            << "delta of vertex " << v;
    }
}

TEST_P(DynConfigs, CcMatchesUnionFind)
{
    const RunOutcome out = simulate(AppId::Cc, GetParam());
    ASSERT_NE(out.cc(), nullptr);
    EXPECT_TRUE(ref::samePartition(out.cc()->labels,
                                   ref::components(smallGraph())));
}

const auto kStaticConfigs = ::testing::Values(
    Point{"TG0"}, Point{"TG1"}, Point{"TGR"}, Point{"TD0"}, Point{"TD1"},
    Point{"TDR"}, Point{"SG0"}, Point{"SG1"}, Point{"SGR"}, Point{"SD0"},
    Point{"SD1"}, Point{"SDR"});

// One pull and one push configuration on 16-lane warps.
const auto kNarrowWarps = ::testing::Values(Point{"TG0", 16}, Point{"SG1", 16});

INSTANTIATE_TEST_SUITE_P(DesignSpace, AllConfigs, kStaticConfigs);

// Seed 0 reproduces the paper runs; seed 5 stands in for the nonzero seeds
// the served jobs and benchmark sweeps use.
INSTANTIATE_TEST_SUITE_P(DesignSpace, SeededConfigs,
                         ::testing::Combine(kStaticConfigs,
                                            ::testing::Values(
                                                std::uint64_t{0},
                                                std::uint64_t{5})));

INSTANTIATE_TEST_SUITE_P(DesignSpace, DynConfigs,
                         ::testing::Values(Point{"DG0"}, Point{"DG1"},
                                           Point{"DGR"}, Point{"DD0"},
                                           Point{"DD1"}, Point{"DDR"}));

INSTANTIATE_TEST_SUITE_P(Lanes16, AllConfigs, kNarrowWarps);
INSTANTIATE_TEST_SUITE_P(Lanes16, SeededConfigs,
                         ::testing::Combine(kNarrowWarps,
                                            ::testing::Values(
                                                std::uint64_t{0},
                                                std::uint64_t{5})));
INSTANTIATE_TEST_SUITE_P(Lanes16, DynConfigs,
                         ::testing::Values(Point{"DG0", 16}));

} // namespace
} // namespace gga
