/**
 * @file
 * graph_cold: worker cold start. Every round resolves the six scale-1.0
 * inputs through the GraphStore with 4 build threads — once against an
 * empty snapshot directory (synthesis + CSR build + save), then several
 * times after clear() from the filled directory (checksummed mmap load).
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/graph_store.hpp"
#include "graph/presets.hpp"
#include "graph/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/** Warm passes per cold pass in one round. */
constexpr int kWarmPerRound = 8;

using Graphs = std::map<gga::GraphPreset, gga::GraphStore::GraphPtr>;

/** Empty the store and the snapshot directory (a fresh worker). */
void
resetWorker(gga::GraphStore& store, const fs::path& dir, bool wipeDir)
{
    store.clear();
    if (wipeDir) {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
}

using ResolveTimes = std::map<gga::GraphPreset, std::vector<double>>;

/** Resolve all six inputs; per-input resolve times land in @p ms. */
Graphs
resolvePass(gga::GraphStore& store, const char* name, Tracer& tracer,
            std::uint64_t trace, ResolveTimes* ms)
{
    Graphs out;
    ScopedSpan root(tracer, name, 0, trace);
    for (const gga::GraphPreset p : gga::kAllGraphPresets) {
        ScopedSpan span(tracer, "graph.resolve", root.id(), trace);
        const Clock::time_point t0 = Clock::now();
        out[p] = store.get(p, 1.0);
        if (ms)
            (*ms)[p].push_back(msBetween(t0, Clock::now()));
    }
    return out;
}

/** Outside the timed region: @p got must equal the reference graphs. */
void
checkGraphs(const Graphs& got, const Graphs& want, const char* pass,
            Report& report)
{
    for (const auto& [p, g] : got) {
        ++report.attempted;
        if (!(*g == *want.at(p)))
            report.fail(std::string(pass) + " " + gga::presetName(p) +
                        " differs from the synthesized graph");
    }
}

/**
 * Traced runs only: time the graph module's own steps on each input —
 * synthesis, snapshot save, mmap load — outside the store.
 */
void
probeGraphLayer(const fs::path& dir, Tracer& tracer, Report& report)
{
    double synth = 0, save = 0, load = 0;
    for (const gga::GraphPreset p : gga::kAllGraphPresets) {
        const fs::path file = dir / ("probe-" + gga::presetName(p) +
                                     ".csrbin");
        Clock::time_point t0 = Clock::now();
        const gga::CsrGraph g = gga::buildPresetScaled(p, 1.0, kThreads);
        Clock::time_point t1 = Clock::now();
        tracer.record("graph.synth", 0, 0, t0, t1);
        synth += msBetween(t0, t1);
        t0 = Clock::now();
        gga::saveCsrSnapshot(file.string(), g);
        t1 = Clock::now();
        tracer.record("graph.save", 0, 0, t0, t1);
        save += msBetween(t0, t1);
        t0 = Clock::now();
        const gga::CsrGraph loaded =
            gga::loadCsrSnapshot(file.string(), gga::SnapshotLoadMode::Mmap);
        t1 = Clock::now();
        tracer.record("graph.mmap_load", 0, 0, t0, t1);
        load += msBetween(t0, t1);
        ++report.attempted;
        if (!(loaded == g))
            report.fail("probe " + gga::presetName(p) +
                        " snapshot round trip differs");
        fs::remove(file);
    }
    report.set("graph.synth_ms", synth, "sum over the six inputs");
    report.set("graph.save_ms", save, "sum over the six inputs");
    report.set("graph.mmap_load_ms", load, "sum over the six inputs");
}

} // namespace

void
runGraphCold(const Options& opts, Report& report, Tracer& tracer)
{
    gga::GraphStore& store = gga::GraphStore::instance();
    const fs::path dir = fs::path(opts.outDir) / "graph_cold_snapshots";

    // Set-up, repeated: a fresh worker — empty store and snapshot
    // directory, 4 build threads, caches pointed at the directory — that
    // has resolved one small input, so its code and allocator are warm.
    std::vector<double> setups;
    constexpr int kSetups = 15;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        resetWorker(store, dir, true);
        store.setBuildThreads(kThreads);
        store.setCacheDir(dir.string());
        store.get(gga::GraphPreset::Dct, 0.05);
        setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    report.set("setup_s", median(setups),
               "median of " + std::to_string(kSetups) + " set-ups");

    Tracer untraced(false);
    Graphs reference;
    std::vector<double> cold, warmPass, traced, plain;
    ResolveTimes warmResolve;
    std::uint64_t resolves = 0, hits = 0, misses = 0;
    double timedS = 0;
    std::uint64_t trace = 0;
    // At least five rounds: 240 warm resolves, so p95 has ten beyond it.
    for (int round = 1; timedS < opts.seconds || round <= 5; ++round) {
        const bool on = opts.trace && round % 2 == 1;
        Tracer& t = on ? tracer : untraced;
        resetWorker(store, dir, true);
        const gga::GraphStore::Counters c0 = store.counters();
        Clock::time_point t0 = Clock::now();
        Graphs fresh = resolvePass(store, "graph.cold_pass", t, ++trace,
                                   nullptr);
        const double coldS = msBetween(t0, Clock::now()) / 1000.0;
        cold.push_back(coldS);
        (on ? traced : plain).push_back(coldS);
        timedS += coldS;
        resolves += fresh.size();
        if (reference.empty())
            reference = fresh;
        else
            checkGraphs(fresh, reference, "cold pass", report);
        fresh.clear();
        for (int w = 0; w < kWarmPerRound; ++w) {
            resetWorker(store, dir, false);
            t0 = Clock::now();
            Graphs warm = resolvePass(store, "graph.warm_pass", t, ++trace,
                                      &warmResolve);
            const double ms = msBetween(t0, Clock::now());
            warmPass.push_back(ms);
            timedS += ms / 1000.0;
            resolves += warm.size();
            checkGraphs(warm, reference, "warm pass", report);
        }
        const gga::GraphStore::Counters c1 = store.counters();
        hits += c1.hits - c0.hits;
        misses += c1.misses - c0.misses;
    }
    const std::size_t rounds = cold.size();

    std::size_t bytes = 0;
    for (const auto& [p, g] : reference)
        bytes += g->memoryBytes();
    // Warm resolve times form six clusters, one per input size, so the
    // nearest-rank median of all of them sits on a cluster edge. op_p50
    // is the median input's median instead: the mean of the 3rd and 4th
    // of the six per-input medians.
    std::vector<double> allWarm, inputMedians;
    for (const auto& [p, ms] : warmResolve) {
        allWarm.insert(allWarm.end(), ms.begin(), ms.end());
        inputMedians.push_back(median(ms));
    }
    std::sort(inputMedians.begin(), inputMedians.end());
    const double pct = highestReportablePercentile(allWarm.size());
    const std::string n = "n=" + std::to_string(allWarm.size()) +
                          " warm resolves; highest reportable p" +
                          std::to_string(static_cast<int>(pct));
    report.set("job_s", median(cold),
               "cold pass, median of " + std::to_string(rounds));
    report.set("op_p50_ms", (inputMedians[2] + inputMedians[3]) / 2,
               "median input's median warm resolve; " + n);
    report.set("op_p95_ms", quantile(allWarm, 0.95), n);
    report.set("units_per_s",
               static_cast<double>(resolves) / std::max(timedS, 1e-9),
               std::to_string(resolves) + " resolves in " +
                   std::to_string(timedS) + " s");
    report.fact("repeats", std::to_string(rounds) + " cold + " +
                               std::to_string(warmPass.size()) +
                               " warm passes");
    report.fact("graph_bytes", std::to_string(bytes));

    report.set("graph.resolve_ms", median(allWarm));
    report.set("graph.warm_pass_ms", median(warmPass));
    report.set("graph.hits", static_cast<double>(hits) / rounds);
    report.set("graph.misses", static_cast<double>(misses) / rounds);
    report.set("graph.bytes", static_cast<double>(bytes));
    if (opts.trace) {
        probeGraphLayer(dir, tracer, report);
        report.set("trace.traced_job_s", median(traced));
        report.set("trace.untraced_job_s", median(plain));
        report.set("trace.overhead_share",
                   median(traced) / std::max(median(plain), 1e-12) - 1.0);
    }
    report.set("peak_rss_mb", peakRssMb());
    reference.clear();
    resetWorker(store, dir, false);
    store.setCacheDir("");
    fs::remove_all(dir);
}

} // namespace perfbench
