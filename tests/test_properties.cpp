/**
 * @file
 * Property-style parameterized tests: invariants that must hold across
 * the whole design space and across inputs, on a small synthetic graph.
 */

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "graph/generator.hpp"

namespace gga {
namespace {

const CsrGraph&
propGraph()
{
    static const CsrGraph g = [] {
        GenSpec spec;
        spec.name = "prop";
        spec.numVertices = 1500;
        spec.numDirectedEdges = 9000;
        spec.dist = DegreeDist::PowerLaw;
        spec.p1 = 2.4;
        spec.p2 = 2.0;
        spec.maxDegree = 128;
        spec.fracIntraBlock = 0.5;
        spec.seed = 21;
        return generateGraph(spec);
    }();
    return g;
}

/** Timing and counters of @p app on the property graph under @p cfg. */
RunResult
simulate(AppId app, std::string_view cfg)
{
    Session session;
    return session
        .run(RunPlan{}
                 .app(app)
                 .graph(propGraph(), "prop")
                 .config(cfg)
                 .collectOutputs(false))
        .result;
}

class PerApp : public ::testing::TestWithParam<AppId>
{
};

/** Pull is insensitive to the consistency model: no atomics to relax. */
TEST_P(PerApp, PullInsensitiveToConsistency)
{
    const AppId app = GetParam();
    if (algoProperties(app).traversal == TraversalKind::Dynamic)
        GTEST_SKIP() << "dynamic apps have no pull variant";
    const Cycles tg0 = simulate(app, "TG0").cycles;
    const Cycles tg1 = simulate(app, "TG1").cycles;
    const Cycles tgr = simulate(app, "TGR").cycles;
    EXPECT_EQ(tg0, tg1);
    EXPECT_EQ(tg1, tgr);
}

/** Pull issues no fine-grained atomics at all. */
TEST_P(PerApp, PullHasNoAtomics)
{
    const AppId app = GetParam();
    if (algoProperties(app).traversal == TraversalKind::Dynamic)
        GTEST_SKIP();
    const RunResult r = simulate(app, "TG0");
    EXPECT_EQ(r.mem.l2Atomics, 0u);
    EXPECT_EQ(r.mem.l1AtomicHits, 0u);
}

/** GPU coherence never registers ownership; DeNovo never L2-atomics. */
TEST_P(PerApp, CoherenceMechanismsAreExclusive)
{
    const AppId app = GetParam();
    const bool dyn =
        algoProperties(app).traversal == TraversalKind::Dynamic;
    const RunResult gpu = simulate(app, dyn ? "DG1" : "SG1");
    EXPECT_EQ(gpu.mem.ownershipRequests, 0u);
    EXPECT_EQ(gpu.mem.l1AtomicHits, 0u);
    const RunResult denovo = simulate(app, dyn ? "DD1" : "SD1");
    EXPECT_EQ(denovo.mem.l2Atomics, 0u);
    EXPECT_GT(denovo.mem.ownershipRequests, 0u);
}

/** Relaxing atomics never slows a push/dynamic workload down (much). */
TEST_P(PerApp, RelaxationHelpsOrIsNeutral)
{
    const AppId app = GetParam();
    const bool dyn =
        algoProperties(app).traversal == TraversalKind::Dynamic;
    const Cycles drf1 = simulate(app, dyn ? "DG1" : "SG1").cycles;
    const Cycles rlx = simulate(app, dyn ? "DGR" : "SGR").cycles;
    // Allow 2% modeling noise (different interleavings).
    EXPECT_LT(rlx, drf1 + drf1 / 50);
}

/** DRF0's paired atomics cost at least as much as DRF1's unpaired. */
TEST_P(PerApp, Drf0IsNeverFasterThanDrf1)
{
    const AppId app = GetParam();
    const bool dyn =
        algoProperties(app).traversal == TraversalKind::Dynamic;
    const Cycles drf0 = simulate(app, dyn ? "DG0" : "SG0").cycles;
    const Cycles drf1 = simulate(app, dyn ? "DG1" : "SG1").cycles;
    EXPECT_GE(drf0, drf1);
}

/** Deterministic replay: identical runs produce identical cycle counts. */
TEST_P(PerApp, DeterministicReplay)
{
    const AppId app = GetParam();
    const bool dyn =
        algoProperties(app).traversal == TraversalKind::Dynamic;
    const char* cfg = dyn ? "DDR" : "SDR";
    const RunResult a = simulate(app, cfg);
    const RunResult b = simulate(app, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.kernels, b.kernels);
}

/** Breakdown cycles are conserved: total == numSms x wall time. */
TEST_P(PerApp, BreakdownConservation)
{
    const AppId app = GetParam();
    const bool dyn =
        algoProperties(app).traversal == TraversalKind::Dynamic;
    const RunResult r = simulate(app, dyn ? "DG1" : "SG1");
    const double expected = static_cast<double>(r.cycles) * 15;
    EXPECT_NEAR(r.breakdown.total(), expected, expected * 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllApps, PerApp,
                         ::testing::Values(AppId::Pr, AppId::Sssp,
                                           AppId::Mis, AppId::Clr,
                                           AppId::Bc, AppId::Cc),
                         [](const auto& info) {
                             return appName(info.param);
                         });

/** The DRF0 flush/invalidate machinery engages only under DRF0. */
TEST(Properties, Drf0FlushesPerAtomic)
{
    const RunResult drf0 = simulate(AppId::Pr, "SG0");
    const RunResult drf1 = simulate(AppId::Pr, "SG1");
    EXPECT_GT(drf0.mem.acquireInvalidatedLines,
              drf1.mem.acquireInvalidatedLines);
}

/** DeNovo with reuse executes a healthy share of atomics at the L1. */
TEST(Properties, DeNovoRealizesAtomicReuse)
{
    const RunResult r = simulate(AppId::Pr, "SD1");
    EXPECT_GT(r.mem.l1AtomicHits, r.mem.ownershipRequests);
}

/** Kernel counts depend only on the algorithm, not the configuration. */
TEST(Properties, KernelCountsConfigInvariant)
{
    for (AppId app : {AppId::Pr, AppId::Mis}) {
        const auto a = simulate(app, "TG0").kernels;
        const auto b = simulate(app, "SDR").kernels;
        EXPECT_EQ(a, b) << appName(app);
    }
}

} // namespace
} // namespace gga
