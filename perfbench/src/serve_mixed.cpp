/**
 * @file
 * serve_mixed: a gga_serve child (--threads 4, fresh --state-dir) under
 * mixed load from this one process, which uses four client threads:
 *
 *   - three serve an open-loop, seeded-Poisson schedule of interactive
 *     single-plan jobs (app x non-AMZ preset x config), each timed from
 *     when it was due until its result row is fetched;
 *   - one is a closed-loop batch client: it submits a one-workload,
 *     all-config sweep, streams /results until the job is done, checks
 *     the assembled ResultSet with verifyComplete, and submits the next.
 *
 * After the load, a seeded sample of the served rows is re-run with an
 * in-process Session and must match exactly.
 */

#include <atomic>
#include <csignal>
#include <exception>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/session.hpp"
#include "eval/manifest.hpp"
#include "eval/result_set.hpp"
#include "eval/run.hpp"
#include "model/algo_props.hpp"
#include "serve/http.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/** Times each interactive request of the mix is sent per run. */
constexpr std::size_t kMixRounds = 1;
/** Client threads serving the interactive schedule (plus one batch). */
constexpr unsigned kInteractiveClients = 3;
/**
 * The interactive latency limit: 4x the unloaded interactive p50
 * (17 ms, measured once on a 4-core Xeon and fixed here, not re-derived
 * per run, so the limit never moves with the code under test).
 */
constexpr double kSloMs = 68;
/** Served rows re-run in-process per run. */
constexpr std::size_t kSampleRows = 10;

const gga::GraphPreset kServedPresets[] = {
    gga::GraphPreset::Dct, gga::GraphPreset::Eml, gga::GraphPreset::Ols,
    gga::GraphPreset::Raj, gga::GraphPreset::Wng};

/** A gga_serve child process; the destructor stops and reaps it. */
class ServerProcess
{
  public:
    ServerProcess(const std::string& bin, const fs::path& dir)
    {
        fs::remove_all(dir);
        fs::create_directories(dir / "state");
        const std::string portFile = (dir / "port").string();
        const std::string state = (dir / "state").string();
        const std::string log = (dir / "serve.log").string();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The child dies with the benchmark, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                  0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execl(bin.c_str(), bin.c_str(), "--port", "0", "--port-file",
                    portFile.c_str(), "--threads", "4", "--state-dir",
                    state.c_str(), static_cast<char*>(nullptr));
            ::_exit(127);
        }
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(30);
        while (port_ == 0) {
            std::ifstream in(portFile);
            unsigned port = 0;
            if (in >> port && port > 0 && port < 65536)
                port_ = static_cast<std::uint16_t>(port);
            else if (Clock::now() > deadline || exited())
                throw std::runtime_error("gga_serve did not start; see " +
                                         log);
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (gga::httpRequest(port_, "GET", "/healthz").status != 200)
            throw std::runtime_error("gga_serve /healthz failed");
    }

    ~ServerProcess()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        for (int i = 0; i < 500 && !exited(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (!reaped_) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

  private:
    bool
    exited()
    {
        if (!reaped_ && ::waitpid(pid_, nullptr, WNOHANG) == pid_)
            reaped_ = true;
        return reaped_;
    }

    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    bool reaped_ = false;
};

/** Every interactive request: app x served preset x valid config. */
std::vector<gga::WorkUnit>
interactiveMix()
{
    std::vector<gga::WorkUnit> mix;
    for (const gga::AppId app : gga::kAllApps)
        for (const gga::GraphPreset p : kServedPresets)
            for (const gga::SystemConfig& c : gga::allConfigs(
                     gga::algoProperties(app).traversal ==
                     gga::TraversalKind::Dynamic)) {
                gga::WorkUnit u;
                u.app = app;
                u.preset = p;
                u.config = c;
                u.scale = kServeScale;
                u.collectOutputs = true;
                mix.push_back(u);
            }
    return mix;
}

/**
 * Batch sweep @p k: one served workload (app x preset) at every valid
 * config. Sweeps cycle through the 30 served workloads in a fixed order,
 * so every run applies the same batch pressure whatever its seed.
 */
gga::Manifest
batchManifest(const std::vector<gga::WorkUnit>& mix, std::size_t k)
{
    const std::size_t workloads = gga::kAllApps.size() *
                                  std::size(kServedPresets);
    gga::Manifest m;
    std::size_t index = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        if (i > 0 && (mix[i].app != mix[i - 1].app ||
                      mix[i].preset != mix[i - 1].preset))
            ++index;
        if (index == k % workloads)
            m.add(mix[i]);
    }
    return m;
}

std::string
jobBody(gga::Json payload, const char* member, const char* tenant,
        const char* priority)
{
    gga::Json body = gga::Json::object();
    body.set(member, std::move(payload));
    body.set("tenant", gga::Json(tenant));
    body.set("priority", gga::Json(priority));
    return body.dump();
}

/** Everything the client threads record; guarded by mu. */
struct LoadLog
{
    std::mutex mu;
    std::vector<double> latencyMs;       ///< completed interactive jobs
    std::vector<double> tracedMs, plainMs;
    std::vector<double> latenessMs;
    std::vector<double> submitMs;
    std::vector<double> resultsMs;
    std::vector<double> batchJobS;
    std::size_t withinSlo = 0;
    std::uint64_t rejected = 0;
    std::uint64_t batchSent = 0;
    std::uint64_t batchRowsByDeadline = 0;
    std::uint64_t queueDepthMax = 0;
    std::vector<std::pair<gga::WorkUnit, gga::UnitResult>> served;
    std::vector<std::string> errors; ///< one per failed or refused job

    void
    error(std::string why)
    {
        std::lock_guard<std::mutex> lock(mu);
        errors.push_back(std::move(why));
    }
};

/** Submit; returns the job snapshot or nullopt (refusal recorded). */
std::optional<gga::Json>
submit(std::uint16_t port, const std::string& body, Tracer& tracer,
       std::uint64_t parent, std::uint64_t trace, LoadLog& log)
{
    ScopedSpan span(tracer, "serve.submit", parent, trace);
    const Clock::time_point t0 = Clock::now();
    const gga::HttpResponse r = gga::httpRequest(port, "POST", "/v1/jobs",
                                                 body);
    const double ms = msBetween(t0, Clock::now());
    {
        std::lock_guard<std::mutex> lock(log.mu);
        log.submitMs.push_back(ms);
        if (r.status == 429)
            ++log.rejected;
    }
    if (r.status != 202) {
        log.error("submit: HTTP " + std::to_string(r.status) + " " + r.body);
        return std::nullopt;
    }
    return gga::Json::parse(r.body);
}

/** Long-poll until the job's version moves past @p snap's. */
gga::Json
waitForChange(std::uint16_t port, const gga::Json& snap, Tracer& tracer,
              std::uint64_t parent, std::uint64_t trace)
{
    ScopedSpan span(tracer, "serve.wait", parent, trace);
    const std::string id = snap.at("id").asString();
    const gga::HttpResponse r = gga::httpRequest(
        port, "GET",
        "/v1/jobs/" + id + "?wait_ms=10000&since=" +
            std::to_string(snap.at("version").asU64()));
    if (r.status != 200)
        throw gga::ServeError("poll " + id + ": HTTP " +
                              std::to_string(r.status));
    return gga::Json::parse(r.body);
}

/** GET /results?after=N; appends rows, returns whether the job is over. */
bool
fetchRows(std::uint16_t port, const std::string& id,
          std::vector<gga::UnitResult>& rows, Tracer& tracer,
          std::uint64_t parent, std::uint64_t trace, LoadLog& log)
{
    ScopedSpan span(tracer, "serve.results", parent, trace);
    const Clock::time_point t0 = Clock::now();
    const gga::HttpResponse r = gga::httpRequest(
        port, "GET",
        "/v1/jobs/" + id + "/results?after=" + std::to_string(rows.size()));
    if (r.status != 200)
        throw gga::ServeError("results " + id + ": HTTP " +
                              std::to_string(r.status));
    const gga::Json page = gga::Json::parse(r.body);
    for (const gga::Json& row : page.at("rows").asArray())
        rows.push_back(gga::UnitResult::fromJson(row));
    {
        std::lock_guard<std::mutex> lock(log.mu);
        log.resultsMs.push_back(msBetween(t0, Clock::now()));
    }
    return page.at("done").asBool();
}

bool
terminal(const gga::Json& snap)
{
    const std::string& s = snap.at("state").asString();
    return s == "done" || s == "failed" || s == "canceled";
}

void
interactiveClient(std::uint16_t port, const std::vector<double>& due,
                  const std::vector<gga::WorkUnit>& mix,
                  const std::vector<std::size_t>& order,
                  std::atomic<std::size_t>& next, Clock::time_point start,
                  bool traceEven, Tracer& tracer, LoadLog& log)
{
    Tracer off(false);
    for (std::size_t i = next++; i < due.size(); i = next++) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(due[i])));
        const bool traced = traceEven && i % 2 == 0;
        Tracer& t = traced ? tracer : off;
        const double sentMs = msBetween(start, Clock::now());
        const gga::WorkUnit& unit = mix[order[i % order.size()]];
        ScopedSpan root(t, "client.job", 0, i + 1);
        try {
            std::optional<gga::Json> snap =
                submit(port,
                       jobBody(unit.toJson(), "plan", "interactive",
                               "interactive"),
                       t, root.id(), i + 1, log);
            if (!snap)
                continue;
            while (!terminal(*snap))
                snap = waitForChange(port, *snap, t, root.id(), i + 1);
            if (snap->at("state").asString() != "done") {
                log.error("interactive job ended " +
                          snap->at("state").asString());
                continue;
            }
            std::vector<gga::UnitResult> rows;
            fetchRows(port, snap->at("id").asString(), rows, t, root.id(),
                      i + 1, log);
            const OpenLoopTiming timing = openLoopTiming(
                due[i], sentMs, msBetween(start, Clock::now()));
            if (rows.size() != 1) {
                log.error("interactive job returned " +
                          std::to_string(rows.size()) + " rows");
                continue;
            }
            std::lock_guard<std::mutex> lock(log.mu);
            log.latencyMs.push_back(timing.latencyMs);
            (traced ? log.tracedMs : log.plainMs)
                .push_back(timing.latencyMs);
            log.latenessMs.push_back(timing.latenessMs);
            if (timing.latencyMs <= kSloMs)
                ++log.withinSlo;
            log.served.emplace_back(unit, std::move(rows.front()));
        } catch (const std::exception& err) {
            log.error(std::string("interactive: ") + err.what());
        }
    }
}

void
batchClient(std::uint16_t port, const std::vector<gga::WorkUnit>& mix,
            Clock::time_point deadline, bool traced, Tracer& tracer,
            LoadLog& log)
{
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    for (std::uint64_t k = 1; Clock::now() < deadline; ++k) {
        const std::uint64_t trace = (1ull << 32) + k;
        const gga::Manifest manifest = batchManifest(mix, k - 1);
        {
            std::lock_guard<std::mutex> lock(log.mu);
            ++log.batchSent;
        }
        ScopedSpan root(t, "client.batch", 0, trace);
        const Clock::time_point t0 = Clock::now();
        try {
            std::optional<gga::Json> snap =
                submit(port,
                       jobBody(manifest.toJson(), "manifest", "batch",
                               "batch"),
                       t, root.id(), trace, log);
            if (!snap)
                continue;
            const std::string id = snap->at("id").asString();
            std::vector<gga::UnitResult> rows;
            for (;;) {
                const std::size_t before = rows.size();
                const bool over =
                    fetchRows(port, id, rows, t, root.id(), trace, log);
                if (Clock::now() < deadline) {
                    std::lock_guard<std::mutex> lock(log.mu);
                    log.batchRowsByDeadline += rows.size() - before;
                }
                if (over && terminal(*snap))
                    break;
                snap = waitForChange(port, *snap, t, root.id(), trace);
                ScopedSpan s(t, "serve.stats", root.id(), trace);
                const gga::HttpResponse st =
                    gga::httpRequest(port, "GET", "/stats");
                if (st.status == 200) {
                    const std::uint64_t depth =
                        gga::Json::parse(st.body)
                            .at("executor")
                            .at("queue_depth")
                            .asU64();
                    std::lock_guard<std::mutex> lock(log.mu);
                    log.queueDepthMax = std::max(log.queueDepthMax, depth);
                }
            }
            if (snap->at("state").asString() != "done") {
                log.error("batch job ended " + snap->at("state").asString());
                continue;
            }
            const gga::ResultSet rs = gga::ResultSet::fromRows(rows);
            rs.verifyComplete(manifest);
            std::lock_guard<std::mutex> lock(log.mu);
            log.batchJobS.push_back(msBetween(t0, Clock::now()) / 1000.0);
            for (std::size_t i = 0; i < manifest.size(); ++i)
                log.served.emplace_back(manifest.units()[i],
                                        *rs.find(manifest.units()[i].key()));
        } catch (const std::exception& err) {
            log.error(std::string("batch: ") + err.what());
        }
    }
}

/** Sum of count and total_ms over /stats unit_latency_ms_by_app. */
std::pair<double, double>
unitLatencyTotals(const gga::Json& stats)
{
    double count = 0, totalMs = 0;
    for (const auto& [app, hist] :
         stats.at("unit_latency_ms_by_app").asObject()) {
        (void)app;
        count += hist.at("count").asDouble();
        totalMs += hist.at("total_ms").asDouble();
    }
    return {count, totalMs};
}

gga::Json
getStats(std::uint16_t port)
{
    const gga::HttpResponse r = gga::httpRequest(port, "GET", "/stats");
    if (r.status != 200)
        throw gga::ServeError("/stats: HTTP " + std::to_string(r.status));
    return gga::Json::parse(r.body);
}

/** Start a server and warm every served input into its GraphStore. */
std::unique_ptr<ServerProcess>
startWarmServer(const Options& opts, int index, LoadLog& log)
{
    auto server = std::make_unique<ServerProcess>(
        opts.serveBin,
        fs::path(opts.outDir) / ("serve-" + std::to_string(index)));
    Tracer off(false);
    for (const gga::GraphPreset p : kServedPresets) {
        gga::WorkUnit u = interactiveMix().front();
        u.preset = p;
        std::optional<gga::Json> snap =
            submit(server->port(),
                   jobBody(u.toJson(), "plan", "warmup", "interactive"), off,
                   0, 0, log);
        if (!snap)
            throw std::runtime_error("warm-up job refused");
        while (!terminal(*snap))
            snap = waitForChange(server->port(), *snap, off, 0, 0);
    }
    return server;
}

} // namespace

void
runServeMixed(const Options& opts, Report& report, Tracer& tracer)
{
    if (opts.serveBin.empty())
        throw std::runtime_error("serve_mixed needs --serve-bin");

    // Set-up, repeated: spawn a server on a fresh state dir, wait for
    // /healthz, and warm its graph store; the last one takes the load.
    LoadLog warmLog;
    std::vector<double> setups;
    std::unique_ptr<ServerProcess> server;
    constexpr int kServeSetups = 3;
    for (int i = 0; i < kServeSetups; ++i) {
        server.reset();
        const Clock::time_point t0 = Clock::now();
        server = startWarmServer(opts, i, warmLog);
        setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    report.set("setup_s", median(setups),
               "median of " + std::to_string(kServeSetups) +
                   " server starts + warm-ups");
    const std::uint16_t port = server->port();

    const gga::Json stats0 = getStats(port);
    // Each of the 330 interactive requests is sent kMixRounds times per
    // run, at seeded Poisson times over the run length (16.5/s for 20 s).
    const std::vector<gga::WorkUnit> mix = interactiveMix();
    const std::vector<double> schedule =
        poissonArrivals(opts.seed, kMixRounds * mix.size(), opts.seconds);
    const std::vector<std::size_t> order = seededOrder(opts.seed, mix.size());
    LoadLog log;
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opts.seconds));
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kInteractiveClients; ++c)
            clients.emplace_back([&] {
                interactiveClient(port, schedule, mix, order, next, start,
                                  opts.trace, tracer, log);
            });
        // The batch client runs on this thread: four load threads in all.
        std::exception_ptr failure;
        try {
            batchClient(port, mix, deadline, opts.trace, tracer, log);
        } catch (...) {
            failure = std::current_exception();
        }
        for (std::thread& t : clients)
            t.join();
        if (failure)
            std::rethrow_exception(failure);
    }
    const double windowS = opts.seconds;
    const gga::Json stats1 = getStats(port);
    report.set("peak_rss_mb", peakRssMb(server->pid()), "gga_serve process");
    server.reset();

    // Outside the timed region: a seeded sample of served rows must equal
    // an in-process run of the same unit.
    gga::SessionOptions so;
    so.threads = 1;
    gga::Session session(so);
    gga::SplitRng sampler(opts.seed, 4);
    const std::size_t samples = std::min(kSampleRows, log.served.size());
    for (std::size_t i = 0; i < samples; ++i) {
        const auto& [unit, row] =
            log.served[sampler.nextBounded(log.served.size())];
        ++report.attempted;
        const gga::RunOutcome local = session.run(gga::planForUnit(unit));
        gga::UnitResult mine;
        mine.key = unit.key();
        mine.run = local.result;
        mine.output = gga::summarizeOutput(local);
        if (!(mine == row))
            report.fail("served row " + row.key +
                        " != in-process Session::run");
    }
    report.attempted += schedule.size() + log.batchSent;
    for (const std::string& why : log.errors)
        report.fail(why);

    const std::size_t n = log.latencyMs.size();
    const double pct = highestReportablePercentile(n);
    const std::string note = "n=" + std::to_string(n) + " of " +
                             std::to_string(schedule.size()) +
                             " interactive jobs; highest reportable p" +
                             std::to_string(static_cast<int>(pct));
    report.set("job_s", median(log.batchJobS),
               "served batch sweep, median of " +
                   std::to_string(log.batchJobS.size()));
    report.set("op_p50_ms", quantile(log.latencyMs, 0.50), note);
    report.set("op_p95_ms", quantile(log.latencyMs, 0.95), note);
    report.set("units_per_s",
               static_cast<double>(log.batchRowsByDeadline) / windowS,
               std::to_string(log.batchRowsByDeadline) +
                   " batch units by the deadline");
    report.fact("scale", std::to_string(kServeScale));
    report.fact("interactive_rate",
                std::to_string(static_cast<double>(schedule.size()) /
                               opts.seconds) +
                    "/s open loop, " +
                                        std::to_string(kInteractiveClients) +
                                        " client threads");
    report.fact("slo_ms", std::to_string(kSloMs));
    report.fact("repeats", std::to_string(n) + " interactive + " +
                               std::to_string(log.batchJobS.size()) +
                               " batch jobs");

    const auto [c0, ms0] = unitLatencyTotals(stats0);
    const auto [c1, ms1] = unitLatencyTotals(stats1);
    report.set("serve.submit_ms_p50", quantile(log.submitMs, 0.50));
    report.set("serve.submit_ms_p95", quantile(log.submitMs, 0.95));
    report.set("serve.rejected", static_cast<double>(log.rejected));
    report.set("serve.failed", static_cast<double>(log.errors.size()));
    report.set("serve.results_ms_p50", quantile(log.resultsMs, 0.50));
    report.set("serve.unit_ms_mean", (ms1 - ms0) / std::max(c1 - c0, 1.0));
    report.set("serve.queue_depth_max",
               static_cast<double>(log.queueDepthMax));
    report.set("serve.slo_ratio",
               static_cast<double>(log.withinSlo) /
                   static_cast<double>(std::max<std::size_t>(
                       schedule.size(), 1)));
    report.set("serve.interactive_sent",
               static_cast<double>(schedule.size()));
    report.set("client.lateness_ms_p95", quantile(log.latenessMs, 0.95));
    report.set("api.busy_share", (ms1 - ms0) / (kThreads * windowS * 1000));
    report.set("api.steals",
               stats1.at("executor").at("steals_total").asDouble() -
                   stats0.at("executor").at("steals_total").asDouble());
    const gga::Json& g0 = stats0.at("graph_store");
    const gga::Json& g1 = stats1.at("graph_store");
    report.set("graph.hits",
               g1.at("hits").asDouble() - g0.at("hits").asDouble());
    report.set("graph.misses",
               g1.at("misses").asDouble() - g0.at("misses").asDouble());
    report.set("graph.bytes", g1.at("resident_bytes").asDouble());
    if (opts.trace) {
        report.set("trace.traced_job_s", median(log.tracedMs) / 1000.0);
        report.set("trace.untraced_job_s", median(log.plainMs) / 1000.0);
        report.set("trace.overhead_share",
                   median(log.tracedMs) /
                           std::max(median(log.plainMs), 1e-12) -
                       1.0);
    }
    for (int i = 0; i < kServeSetups; ++i)
        fs::remove_all(fs::path(opts.outDir) / ("serve-" + std::to_string(i)));
}

} // namespace perfbench
