/**
 * @file
 * sweep_pull / sweep_push: one design-space manifest run in-process on a
 * 4-wide Session executor, repeated for the run length.
 *
 * A sweep is timed from manifest build to the serialized ResultSet. Each
 * unit runs as its own executor task around Session::tryRun — the body
 * of eval's submitManifestStreamed — so the benchmark sees every unit's
 * start, end and full functional output, which the streamed path reduces
 * to a hash. Outputs are checked against apps/reference.hpp after the
 * timed region.
 */

#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "apps/app.hpp"
#include "apps/reference.hpp"
#include "eval/manifest.hpp"
#include "eval/result_set.hpp"
#include "eval/run.hpp"
#include "harness/workloads.hpp"
#include "model/algo_props.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/**
 * The sweep's manifest: static workloads x one direction's configs, plus
 * (push) the dynamic CC workloads x their configs.
 *
 * MIS and CLR work depends on the unit seed (CLR-AMZ alone moves the
 * sweep's event count by ~9% between seeds). So the six configs of each
 * workload run the six unit seeds 1..6, rotated by @p seed: every sweep
 * simulates the same (input, seed) pairs and does about the same work,
 * while @p seed still decides which design point draws which seed.
 */
gga::Manifest
sweepManifest(bool push, std::uint64_t seed)
{
    gga::Manifest m;
    for (const gga::Workload& w : gga::allWorkloads()) {
        if (w.dynamic() && !push)
            continue;
        std::uint64_t slot = seed % 6;
        for (const gga::SystemConfig& c : gga::allConfigs(w.dynamic())) {
            const bool wanted =
                w.dynamic() || (push ? c.prop == gga::UpdateProp::Push
                                     : c.prop == gga::UpdateProp::Pull);
            if (!wanted)
                continue;
            gga::WorkUnit u;
            u.app = w.app;
            u.preset = w.graph;
            u.scale = kSweepScale;
            u.config = c;
            u.seed = 1 + slot++ % 6;
            u.collectOutputs = true;
            m.add(u);
        }
    }
    return m;
}

/** Shared state of one sweep's executor tasks. */
struct SweepTasks
{
    gga::Session* session = nullptr;
    Tracer* tracer = nullptr;
    std::uint64_t span = 0;
    std::uint64_t trace = 0;
    Clock::time_point posted;
    std::vector<gga::RunPlan> plans;
    std::vector<std::optional<gga::RunOutcome>> outcomes;
    std::vector<std::string> errors;
    std::vector<UnitTiming> timings;

    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;

    void
    runUnit(std::size_t i)
    {
        std::string why;
        const Clock::time_point t0 = Clock::now();
        std::optional<gga::RunOutcome> out = session->tryRun(plans[i], &why);
        const Clock::time_point t1 = Clock::now();
        tracer->record("sim.unit", span, trace, t0, t1);
        outcomes[i] = std::move(out);
        errors[i] = std::move(why);
        timings[i] = UnitTiming{msBetween(posted, t1), msBetween(t0, t1)};
        std::lock_guard<std::mutex> lock(mu);
        if (++done == plans.size())
            cv.notify_all();
    }
};

struct SweepResult
{
    double jobS = 0;
    double manifestMs = 0, collectMs = 0, serializeMs = 0;
    gga::Manifest manifest;
    gga::ResultSet results;
    std::vector<std::optional<gga::RunOutcome>> outcomes;
    std::vector<std::string> errors;
    std::vector<UnitTiming> timings;
    std::uint64_t digest = 0;
};

SweepResult
runOneSweep(gga::Session& session, bool push, std::uint64_t seed,
            Tracer& tracer, std::uint64_t trace)
{
    SweepResult r;
    const Clock::time_point t0 = Clock::now();
    ScopedSpan root(tracer, "eval.sweep", 0, trace);
    SweepTasks tasks;
    {
        ScopedSpan s(tracer, "eval.manifest", root.id(), trace);
        r.manifest = sweepManifest(push, seed);
        for (const gga::WorkUnit& u : r.manifest.units())
            tasks.plans.push_back(
                gga::planForUnit(u).priority(gga::Lane::Batch));
    }
    const Clock::time_point t1 = Clock::now();
    const std::size_t n = tasks.plans.size();
    tasks.session = &session;
    tasks.tracer = &tracer;
    tasks.span = root.id();
    tasks.trace = trace;
    tasks.outcomes.resize(n);
    tasks.errors.resize(n);
    tasks.timings.resize(n);
    {
        ScopedSpan s(tracer, "api.post", root.id(), trace);
        std::vector<gga::TaskPool::Task> jobs;
        jobs.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            jobs.emplace_back([t = &tasks, i] { t->runUnit(i); });
        tasks.posted = Clock::now();
        session.executor().postAll(std::move(jobs), gga::Lane::Batch);
    }
    {
        std::unique_lock<std::mutex> lock(tasks.mu);
        tasks.cv.wait(lock, [&] { return tasks.done == n; });
    }
    const Clock::time_point t2 = Clock::now();
    {
        ScopedSpan s(tracer, "eval.collect", root.id(), trace);
        std::vector<gga::UnitResult> rows;
        rows.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (!tasks.outcomes[i])
                continue;
            gga::UnitResult row;
            row.key = r.manifest.units()[i].key();
            row.run = tasks.outcomes[i]->result;
            row.output = gga::summarizeOutput(*tasks.outcomes[i]);
            rows.push_back(std::move(row));
        }
        r.results = gga::ResultSet::fromRows(std::move(rows));
    }
    const Clock::time_point t3 = Clock::now();
    std::string canonical;
    {
        ScopedSpan s(tracer, "eval.serialize", root.id(), trace);
        canonical = r.results.toJson().dump();
    }
    const Clock::time_point t4 = Clock::now();
    r.jobS = msBetween(t0, t4) / 1000.0;
    r.manifestMs = msBetween(t0, t1);
    r.collectMs = msBetween(t2, t3);
    r.serializeMs = msBetween(t3, t4);
    r.digest = gga::fnv1a(canonical.data(), canonical.size());
    r.outcomes = std::move(tasks.outcomes);
    r.errors = std::move(tasks.errors);
    r.timings = std::move(tasks.timings);
    return r;
}

/** CPU reference outputs of one (app, input), computed once per run. */
struct Reference
{
    std::vector<double> ranks;
    std::vector<std::uint32_t> dist;
    gga::ref::BcRef bc;
    std::vector<std::uint32_t> components;
};

bool
near(double got, double want, double abs, double rel)
{
    return std::abs(got - want) <= std::max(abs, rel * std::abs(want));
}

/** Why @p out disagrees with the reference, or "" when it matches. */
std::string
checkOutput(const gga::RunOutcome& out, const gga::CsrGraph& g,
            const Reference& ref)
{
    if (const gga::PrOutput* pr = out.pr()) {
        if (pr->ranks.size() != ref.ranks.size())
            return "PageRank output length";
        for (std::size_t v = 0; v < ref.ranks.size(); ++v)
            if (!near(pr->ranks[v], ref.ranks[v], 1e-6, 1e-3))
                return "PageRank rank of vertex " + std::to_string(v);
        return {};
    }
    if (const gga::SsspOutput* sssp = out.sssp())
        return sssp->dist == ref.dist ? "" : "SSSP distances != Dijkstra";
    if (const gga::MisOutput* mis = out.mis())
        return gga::ref::validMis(g, mis->state) ? "" : "invalid MIS";
    if (const gga::ClrOutput* clr = out.clr())
        return gga::ref::validColoring(g, clr->colors) ? ""
                                                        : "invalid coloring";
    if (const gga::BcOutput* bc = out.bc()) {
        if (bc->level != ref.bc.level)
            return "BC levels != Brandes";
        for (std::size_t v = 0; v < bc->level.size(); ++v)
            if (!near(bc->sigma[v], ref.bc.sigma[v], 1e-9, 1e-9) ||
                !near(bc->delta[v], ref.bc.delta[v], 1e-9, 1e-9))
                return "BC sigma/delta of vertex " + std::to_string(v);
        return {};
    }
    if (const gga::CcOutput* cc = out.cc())
        return gga::ref::samePartition(cc->labels, ref.components)
                   ? ""
                   : "CC partition != union-find";
    return "no functional output";
}

/** Check every unit of @p sweep; each unit is one attempted operation. */
void
checkSweep(gga::Session& session, const SweepResult& sweep,
           std::map<std::pair<gga::AppId, gga::GraphPreset>, Reference>& refs,
           Report& report)
{
    try {
        sweep.results.verifyComplete(sweep.manifest);
    } catch (const gga::EvalError& err) {
        report.fail(std::string("ResultSet incomplete: ") + err.what());
    }
    const std::vector<gga::WorkUnit>& units = sweep.manifest.units();
    for (std::size_t i = 0; i < units.size(); ++i) {
        ++report.attempted;
        const gga::WorkUnit& u = units[i];
        if (!sweep.outcomes[i]) {
            report.fail(u.key() + ": " + sweep.errors[i]);
            continue;
        }
        const auto g = session.graphs().get(*u.preset, u.scale);
        auto [it, fresh] = refs.try_emplace({u.app, *u.preset});
        Reference& ref = it->second;
        if (fresh) {
            switch (u.app) {
            case gga::AppId::Pr:
                ref.ranks = gga::ref::pagerank(*g, gga::kPrIterations);
                break;
            case gga::AppId::Sssp:
                ref.dist = gga::ref::dijkstra(*g, 0);
                break;
            case gga::AppId::Bc:
                ref.bc = gga::ref::brandes(*g, 0);
                break;
            case gga::AppId::Cc:
                ref.components = gga::ref::components(*g);
                break;
            default:
                break;
            }
        }
        const std::string why = checkOutput(*sweep.outcomes[i], *g, ref);
        if (!why.empty())
            report.fail(u.key() + ": " + why);
    }
}

/** Sum of the exact simulator counters over one sweep's rows. */
struct SimTotals
{
    gga::MemStats mem;
    gga::StallBreakdown stall;
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
};

SimTotals
simTotals(const gga::ResultSet& rs)
{
    SimTotals t;
    for (const gga::UnitResult& r : rs.results()) {
        const gga::MemStats& m = r.run.mem;
        t.mem.l1LoadHits += m.l1LoadHits;
        t.mem.l1LoadMisses += m.l1LoadMisses;
        t.mem.l1AtomicHits += m.l1AtomicHits;
        t.mem.ownershipRequests += m.ownershipRequests;
        t.mem.ownershipForwards += m.ownershipForwards;
        t.mem.l2Atomics += m.l2Atomics;
        t.mem.l2Reads += m.l2Reads;
        t.mem.l2ReadMisses += m.l2ReadMisses;
        t.mem.flushedLines += m.flushedLines;
        t.mem.acquireInvalidatedLines += m.acquireInvalidatedLines;
        t.mem.dramReads += m.dramReads;
        t.mem.dramWrites += m.dramWrites;
        t.mem.l1Retries += m.l1Retries;
        t.stall += r.run.breakdown;
        t.events += r.run.events;
        t.cycles += r.run.cycles;
    }
    return t;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Resolve every input of @p manifest through a cleared GraphStore. */
double
resolveInputs(gga::Session& session, const gga::Manifest& manifest,
              Tracer& tracer)
{
    ScopedSpan span(tracer, "graph.resolve_inputs");
    const Clock::time_point t0 = Clock::now();
    for (const gga::Manifest::GraphInput& in : manifest.graphInputs())
        session.graphs().get(*in.preset, in.scale);
    return msBetween(t0, Clock::now());
}

} // namespace

void
runSweep(const Options& opts, bool push, Report& report, Tracer& tracer)
{
    gga::SessionOptions so;
    so.threads = kThreads;
    so.pinThreads = false;
    gga::Session session(so);
    session.executor(); // start the workers before anything is timed

    // Set-up, repeated: a fresh GraphStore resolves the bench-scale
    // inputs (synthesis + CSR build) and the manifest is enumerated.
    std::vector<double> setups, resolveMs;
    constexpr int kSetups = 5;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        session.graphs().clear();
        const gga::Manifest m = sweepManifest(push, opts.seed);
        resolveMs.push_back(resolveInputs(session, m, tracer));
        setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    report.set("setup_s", median(setups),
               "median of " + std::to_string(kSetups) + " set-ups");

    Tracer untraced(false);
    std::map<std::pair<gga::AppId, gga::GraphPreset>, Reference> refs;
    std::vector<double> jobs, traced, plain, manifestMs, collectMs,
        serializeMs, unitMs, busy, tail, waitP50, waitP90, nsPerEvent;
    std::map<std::string, std::vector<double>> appMs;
    double gpuMs = 0, denovoMs = 0;
    std::uint64_t gpuEvents = 0, denovoEvents = 0, units = 0;
    std::optional<std::uint64_t> digest;
    SimTotals totals;
    std::uint64_t hits = 0, misses = 0;
    const std::uint64_t steals0 = session.executorStats().stealsTotal;
    double timedS = 0;
    for (std::uint64_t rep = 1; timedS < opts.seconds || rep <= 3; ++rep) {
        // A traced run alternates traced and untraced sweeps, so the
        // difference of the two medians is the tracing overhead.
        const bool on = opts.trace && rep % 2 == 1;
        const gga::GraphStore::Counters c0 = session.graphs().counters();
        SweepResult s =
            runOneSweep(session, push, opts.seed, on ? tracer : untraced,
                        rep);
        const gga::GraphStore::Counters c1 = session.graphs().counters();
        hits += c1.hits - c0.hits;
        misses += c1.misses - c0.misses;
        timedS += s.jobS;
        jobs.push_back(s.jobS);
        (on ? traced : plain).push_back(s.jobS);
        manifestMs.push_back(s.manifestMs);
        collectMs.push_back(s.collectMs);
        serializeMs.push_back(s.serializeMs);
        const ExecutorMetrics em = executorMetrics(s.timings, kThreads);
        busy.push_back(em.busyShare);
        tail.push_back(em.tailS);
        waitP50.push_back(em.queueWaitP50Ms);
        waitP90.push_back(em.queueWaitP90Ms);

        // Outside the timed region: outputs against the references, and
        // every sweep of the run must serialize to the same bytes.
        checkSweep(session, s, refs, report);
        ++report.attempted;
        if (digest && *digest != s.digest)
            report.fail("sweep " + std::to_string(rep) +
                        " ResultSet differs from sweep 1");
        digest = s.digest;
        totals = simTotals(s.results);
        double sweepMs = 0;
        const std::vector<gga::WorkUnit>& us = s.manifest.units();
        for (std::size_t i = 0; i < us.size(); ++i) {
            const double ms = s.timings[i].runMs;
            sweepMs += ms;
            unitMs.push_back(ms);
            ++units;
            if (!s.outcomes[i])
                continue;
            appMs[s.outcomes[i]->appName].push_back(ms);
            const std::uint64_t ev = s.outcomes[i]->result.events;
            if (us[i].config.coh == gga::CoherenceKind::DeNovo) {
                denovoMs += ms;
                denovoEvents += ev;
            } else {
                gpuMs += ms;
                gpuEvents += ev;
            }
        }
        nsPerEvent.push_back(sweepMs * 1e6 /
                             static_cast<double>(std::max<std::uint64_t>(
                                 totals.events, 1)));
    }
    const std::size_t reps = jobs.size();

    const double pct = highestReportablePercentile(unitMs.size());
    const std::string n = "n=" + std::to_string(unitMs.size()) +
                          " units; highest reportable p" +
                          std::to_string(static_cast<int>(pct));
    report.set("job_s", median(jobs),
               "median of " + std::to_string(reps) + " sweeps");
    report.set("op_p50_ms", quantile(unitMs, 0.50), n);
    report.set("op_p95_ms", quantile(unitMs, 0.95), n);
    report.set("units_per_s",
               static_cast<double>(units) / std::max(timedS, 1e-9),
               std::to_string(units) + " units in " +
                   std::to_string(timedS) + " s");

    report.fact("scale", std::to_string(kSweepScale));
    report.fact("units_per_sweep",
                std::to_string(units / std::max<std::size_t>(reps, 1)));
    report.fact("repeats", std::to_string(reps) + " sweeps");
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest.value_or(0)));
    report.fact("sim_digest", hex);
    report.fact("sim.events", std::to_string(totals.events));
    report.fact("sim.cycles", std::to_string(totals.cycles));

    const gga::MemStats& m = totals.mem;
    report.set("sim.events", static_cast<double>(totals.events), "exact");
    report.set("sim.cycles", static_cast<double>(totals.cycles), "exact");
    report.set("sim.host_ns_per_event", median(nsPerEvent));
    report.set("sim.unit_ms_p50", quantile(unitMs, 0.5));
    report.set("sim.unit_ms_p90", quantile(unitMs, 0.9));
    for (const auto& [app, ms] : appMs)
        report.set("sim.unit_ms." + app, median(ms));
    report.set("sim.ns_per_event.gpu",
               gpuMs * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                 gpuEvents, 1)));
    report.set("sim.ns_per_event.denovo",
               denovoMs * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                    denovoEvents, 1)));
    report.set("sim.l2.atomics", static_cast<double>(m.l2Atomics));
    report.set("sim.l1.atomic_hits", static_cast<double>(m.l1AtomicHits));
    report.set("sim.denovo.ownership_requests",
               static_cast<double>(m.ownershipRequests));
    report.set("sim.denovo.ownership_forwards",
               static_cast<double>(m.ownershipForwards));
    report.set("sim.flushed_lines", static_cast<double>(m.flushedLines));
    report.set("sim.invalidated_lines",
               static_cast<double>(m.acquireInvalidatedLines));
    report.set("sim.l1.load_hit_ratio",
               ratio(m.l1LoadHits, m.l1LoadHits + m.l1LoadMisses));
    report.set("sim.l1.retries", static_cast<double>(m.l1Retries));
    report.set("sim.l2.read_miss_ratio", ratio(m.l2ReadMisses, m.l2Reads));
    report.set("sim.dram.reads", static_cast<double>(m.dramReads));
    report.set("sim.dram.writes", static_cast<double>(m.dramWrites));
    report.set("sim.stall.busy", totals.stall.busy);
    report.set("sim.stall.comp", totals.stall.comp);
    report.set("sim.stall.data", totals.stall.data);
    report.set("sim.stall.sync", totals.stall.sync);
    report.set("sim.stall.idle", totals.stall.idle);

    report.set("api.busy_share", median(busy));
    report.set("api.tail_s", median(tail));
    report.set("api.queue_wait_ms_p50", median(waitP50));
    report.set("api.queue_wait_ms_p90", median(waitP90));
    report.set("api.steals",
               static_cast<double>(session.executorStats().stealsTotal -
                                   steals0) /
                   static_cast<double>(reps));
    report.set("eval.manifest_ms", median(manifestMs));
    report.set("eval.collect_ms", median(collectMs));
    report.set("eval.serialize_ms", median(serializeMs));
    report.set("graph.resolve_ms", median(resolveMs));
    report.set("graph.hits", static_cast<double>(hits) / reps);
    report.set("graph.misses", static_cast<double>(misses) / reps);
    report.set("graph.bytes",
               static_cast<double>(session.graphs().totalBytes()));
    if (opts.trace) {
        report.set("trace.traced_job_s", median(traced));
        report.set("trace.untraced_job_s", median(plain));
        report.set("trace.overhead_share",
                   median(traced) / std::max(median(plain), 1e-12) - 1.0);
    }
    report.set("peak_rss_mb", peakRssMb());
}

} // namespace perfbench
