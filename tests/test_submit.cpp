/**
 * @file
 * Tests for the async execution layer: the TaskPool executor,
 * Session::submit / submitAll (parity with the synchronous run path,
 * batches in flight at several thread widths, invalid plans surfacing as
 * future errors), and sweeps sharing one executor.
 */

#include <atomic>
#include <chrono>
#include <climits>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "api/task_pool.hpp"
#include "eval/manifest.hpp"
#include "eval/run.hpp"
#include "graph/generator.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "support/faults.hpp"

namespace gga {
namespace {

const CsrGraph&
smallGraph()
{
    static const CsrGraph g = [] {
        GenSpec spec;
        spec.name = "submit-small";
        spec.numVertices = 500;
        spec.numDirectedEdges = 2500;
        spec.dist = DegreeDist::PowerLaw;
        spec.p1 = 2.2;
        spec.p2 = 1.4;
        spec.maxDegree = 40;
        spec.fracIntraBlock = 0.3;
        spec.seed = 777;
        return generateGraph(spec);
    }();
    return g;
}

Session
makeSession(unsigned threads)
{
    SessionOptions opts;
    opts.threads = threads;
    return Session(opts);
}

// --- TaskPool -------------------------------------------------------------

TEST(TaskPoolTest, RunsEveryJobAtSeveralWidths)
{
    for (unsigned width : {1u, 2u, 4u}) {
        TaskPool pool(width);
        EXPECT_EQ(pool.width(), width);
        std::atomic<int> ran{0};
        std::vector<std::future<int>> futures;
        for (int i = 0; i < 32; ++i) {
            futures.push_back(pool.submit([i, &ran] {
                ran.fetch_add(1);
                return i * i;
            }));
        }
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(futures[i].get(), i * i) << "width " << width;
        EXPECT_EQ(ran.load(), 32);
    }
}

TEST(TaskPoolTest, WidthZeroClampsToOneWorker)
{
    TaskPool pool(0);
    EXPECT_EQ(pool.width(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(TaskPoolTest, ExceptionsPropagateThroughFutures)
{
    TaskPool pool(2);
    std::future<int> bad =
        pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that carried the throwing task keeps serving.
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(TaskPoolTest, DestructorDrainsPostedJobs)
{
    std::atomic<int> ran{0};
    {
        TaskPool pool(1);
        for (int i = 0; i < 8; ++i)
            pool.post([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 8);
}

TEST(TaskPoolTest, InteractiveLaneOvertakesQueuedBatchWork)
{
    TaskPool pool(1);
    // Park the single worker so everything below queues behind it.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    pool.post([opened] { opened.wait(); }, Lane::Interactive);
    while (pool.active() == 0)
        std::this_thread::yield();

    std::mutex order_mu;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        pool.post(
            [&order_mu, &order, i] {
                const std::lock_guard<std::mutex> lock(order_mu);
                order.push_back(100 + i);
            },
            Lane::Batch);
    }
    for (int i = 0; i < 3; ++i) {
        pool.post(
            [&order_mu, &order, i] {
                const std::lock_guard<std::mutex> lock(order_mu);
                order.push_back(i);
            },
            Lane::Interactive);
    }
    EXPECT_EQ(pool.pending(Lane::Interactive), 3u);
    EXPECT_EQ(pool.pending(Lane::Batch), 3u);

    gate.set_value();
    while (pool.completedTotal() < 7)
        std::this_thread::yield();
    // Interactive tasks posted LAST still ran first, FIFO within lanes.
    // (order_mu, not the completion counter, synchronizes the reads.)
    const std::vector<int> want{0, 1, 2, 100, 101, 102};
    const std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_EQ(order, want);
}

TEST(TaskPoolTest, PostAllBatchesFanOutThroughStealing)
{
    TaskPool pool(4);
    std::atomic<int> ran{0};
    std::vector<TaskPool::Task> tasks;
    // The expanding worker pops the slow head in batch order and holds it
    // for 200ms; its siblings have nothing else, so the remaining units
    // MUST arrive via steals.
    tasks.emplace_back([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ran.fetch_add(1);
    });
    for (int i = 0; i < 15; ++i) {
        tasks.emplace_back([&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ran.fetch_add(1);
        });
    }
    pool.postAll(std::move(tasks), Lane::Batch);
    while (pool.completedTotal() < 16)
        std::this_thread::yield();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_GT(pool.stats().stealsTotal, 0u);
}

// --- stealing determinism -------------------------------------------------

TEST(StealingDeterminism, ManifestBytesIdenticalAcrossWidthsUnderYields)
{
    // A manifest wide enough to fan out, with seeds making keys distinct.
    Manifest manifest;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        WorkUnit u;
        // CC's dynamic traversal requires a PushPull config; PR is static.
        u.app = seed % 2 == 0 ? AppId::Pr : AppId::Cc;
        u.config = *tryParseConfig(seed % 2 == 0 ? "SG1" : "DD1");
        u.preset = GraphPreset::Raj;
        u.scale = 0.05;
        u.seed = seed;
        manifest.add(u);
    }

    // Arm the executor's scheduling perturbation: every 3rd dequeue
    // yields, shuffling which worker runs what. Results must not care.
    // RAII reset: a failing expectation must not leave later tests
    // running with faults armed.
    struct FaultReset
    {
        ~FaultReset() { faults::configure(""); }
    } reset;
    faults::configure("seed=1,pool.yield=2/3");
    std::optional<std::string> want;
    for (unsigned width : {1u, 2u, 8u}) {
        Session session = makeSession(width);
        const std::string got =
            runManifest(session, manifest).toJson().dump();
        if (!want)
            want = got;
        else
            EXPECT_EQ(got, *want) << "width " << width;
    }
}

// --- Session::submit ------------------------------------------------------

TEST(Submit, MatchesRunForEveryApp)
{
    Session serial;
    Session async = makeSession(2);
    const CsrGraph& g = smallGraph();

    for (AppId app : kAllApps) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        const RunPlan plan = RunPlan{}
                                 .app(app)
                                 .graph(g, "submit-small")
                                 .config(dynamic ? "DD1" : "SG1");
        const RunOutcome want = serial.run(plan);
        const RunOutcome got = async.submit(plan).get();
        EXPECT_EQ(got.result.cycles, want.result.cycles) << appName(app);
        EXPECT_EQ(got.result.kernels, want.result.kernels) << appName(app);
        EXPECT_EQ(got.result.events, want.result.events) << appName(app);
        EXPECT_TRUE(got.output == want.output) << appName(app);
        EXPECT_EQ(got.name(), want.name()) << appName(app);
    }
}

TEST(Submit, BatchOfFuturesInFlightAtSeveralWidths)
{
    const CsrGraph& g = smallGraph();

    // One batch spanning apps and configs, big enough to keep every
    // width's workers busy simultaneously.
    std::vector<RunPlan> plans;
    for (AppId app : {AppId::Pr, AppId::Mis, AppId::Cc}) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        for (const SystemConfig& cfg : figureConfigs(dynamic))
            plans.push_back(RunPlan{}
                                .app(app)
                                .graph(g, "submit-small")
                                .config(cfg)
                                .collectOutputs(false));
    }

    Session serial;
    std::vector<RunOutcome> want;
    for (const RunPlan& plan : plans)
        want.push_back(serial.run(plan));

    for (unsigned width : {1u, 2u, 4u}) {
        Session async = makeSession(width);
        std::vector<std::future<RunOutcome>> futures =
            async.submitAll(plans);
        ASSERT_EQ(futures.size(), want.size());
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const RunOutcome got = futures[i].get();
            EXPECT_EQ(got.result.cycles, want[i].result.cycles)
                << want[i].name() << " at width " << width;
            EXPECT_EQ(got.result.events, want[i].result.events)
                << want[i].name() << " at width " << width;
            EXPECT_EQ(got.config, want[i].config) << "ordering at " << i;
        }
    }
}

TEST(Submit, InvalidPlanSurfacesThroughFutureNotFatal)
{
    Session session = makeSession(2);
    // PR is static: "DD1" fails the app x config predicate.
    std::future<RunOutcome> bad = session.submit(
        RunPlan{}.app(AppId::Pr).graph(smallGraph(), "g").config("DD1"));
    try {
        bad.get();
        FAIL() << "expected PlanError";
    } catch (const PlanError& err) {
        EXPECT_NE(std::string(err.what()).find("PR"), std::string::npos);
    }
    // A malformed config name and an empty plan surface the same way.
    EXPECT_THROW(session
                     .submit(RunPlan{}
                                 .app(AppId::Pr)
                                 .graph(smallGraph(), "g")
                                 .config("QQQ"))
                     .get(),
                 PlanError);
    EXPECT_THROW(session.submit(RunPlan{}).get(), PlanError);
    // The executor survives bad plans.
    const RunOutcome ok =
        session
            .submit(RunPlan{}.app(AppId::Pr).graph(smallGraph(), "g").config(
                "SG1"))
            .get();
    EXPECT_GT(ok.result.cycles, 0u);
}

TEST(Submit, ThreadsOptionResolves)
{
    EXPECT_EQ(makeSession(3).threads(), 3u);
    EXPECT_GE(Session().threads(), 1u); // environment default
}

TEST(Submit, SessionThreadsParseIsStrict)
{
    const std::string max = std::to_string(UINT_MAX);
    EXPECT_EQ(parseSessionThreads("8"), std::optional<unsigned>(8));
    EXPECT_EQ(parseSessionThreads(max), std::optional<unsigned>(UINT_MAX));
    // Trailing or leading junk is rejected, not read as its numeric prefix.
    EXPECT_EQ(parseSessionThreads("8threads"), std::nullopt);
    EXPECT_EQ(parseSessionThreads("8 "), std::nullopt);
    EXPECT_EQ(parseSessionThreads(" 8"), std::nullopt);
    EXPECT_EQ(parseSessionThreads("+8"), std::nullopt);
    EXPECT_EQ(parseSessionThreads(""), std::nullopt);
    // Zero and negative counts are invalid.
    EXPECT_EQ(parseSessionThreads("0"), std::nullopt);
    EXPECT_EQ(parseSessionThreads("-1"), std::nullopt);
    // Overflow is rejected, not truncated (2^32 + 1 must not become 1).
    EXPECT_EQ(parseSessionThreads("4294967297"), std::nullopt);
    EXPECT_EQ(parseSessionThreads(max + "0"), std::nullopt);
}

// --- sweeps on a shared executor ------------------------------------------

Session
makeSweepSession(unsigned threads)
{
    SessionOptions opts;
    opts.threads = threads;
    opts.scale = evaluationScale();
    return Session(opts);
}

SweepResult
figureSweep(Session& session, const Workload& wl)
{
    return sweepWorkload(session, wl, figureConfigs(wl.dynamic()));
}

TEST(SubmitSweep, ConcurrentSweepsMatchSerial)
{
    const Workload mis{AppId::Mis, GraphPreset::Raj};
    const Workload cc{AppId::Cc, GraphPreset::Raj};

    Session serial = makeSweepSession(1);
    const SweepResult mis_serial = figureSweep(serial, mis);
    const SweepResult cc_serial = figureSweep(serial, cc);

    for (unsigned width : {2u, 4u}) {
        Session session = makeSweepSession(width);
        // Both sweeps in flight on one executor, from two caller threads.
        SweepResult cc_par;
        std::thread other([&] { cc_par = figureSweep(session, cc); });
        const SweepResult mis_par = figureSweep(session, mis);
        other.join();

        for (const auto& [serial, par] :
             {std::pair<const SweepResult&, const SweepResult&>(mis_serial,
                                                                mis_par),
              std::pair<const SweepResult&, const SweepResult&>(cc_serial,
                                                                cc_par)}) {
            ASSERT_EQ(par.results.size(), serial.results.size());
            for (std::size_t i = 0; i < serial.results.size(); ++i) {
                EXPECT_EQ(par.results[i].config, serial.results[i].config);
                EXPECT_EQ(par.results[i].run.cycles,
                          serial.results[i].run.cycles);
                EXPECT_EQ(par.results[i].run.events,
                          serial.results[i].run.events);
            }
            EXPECT_EQ(par.best, serial.best);
            EXPECT_EQ(par.predicted, serial.predicted);
            EXPECT_EQ(par.bestCycles, serial.bestCycles);
            EXPECT_EQ(par.predictedCycles, serial.predictedCycles);
            EXPECT_EQ(par.baselineCycles, serial.baselineCycles);
        }
    }
}

} // namespace
} // namespace gga
