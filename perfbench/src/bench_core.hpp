/**
 * @file
 * The benchmark's own measurement kit: sample statistics with the
 * "≥10 samples beyond" percentile rule, the seeded open-loop arrival
 * schedule, executor metrics derived from per-unit completion streams,
 * span tracing with per-layer self time, and the report every workload
 * fills. Nothing here touches the simulator; the workload files time
 * calls into the program's public modules and feed the results in.
 */

#ifndef PERFBENCH_BENCH_CORE_HPP
#define PERFBENCH_BENCH_CORE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p t0 to @p t1. */
double msBetween(Clock::time_point t0, Clock::time_point t1);

// --- sample statistics ----------------------------------------------------

/** Nearest-rank quantile, @p q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/**
 * The highest of the percentiles {50, 90, 95, 99, 99.9} that has at
 * least ten samples beyond it in a sample of @p n; 0 when even the
 * median has fewer than ten samples above it (n < 20).
 */
double highestReportablePercentile(std::size_t n);

// --- open-loop load -------------------------------------------------------

/**
 * Due times (ms from the start of the load phase, sorted) of @p count
 * Poisson arrivals over @p durationS seconds: the arrivals of a Poisson
 * process conditioned on its count, i.e. sorted uniform draws. Fixing
 * the count keeps the request mix the same in every run; the same seed
 * yields the same schedule.
 */
std::vector<double> poissonArrivals(std::uint64_t seed, std::size_t count,
                                    double durationS);

/**
 * A seeded permutation of 0..n-1. Request i of a load phase sends mix
 * entry order[i % n], so every run covers the whole mix evenly and the
 * seed only changes the order.
 */
std::vector<std::size_t> seededOrder(std::uint64_t seed, std::size_t n);

/**
 * Open-loop timing of one request: latency counts from when the request
 * was due (so a stalled generator charges its wait to the requests behind
 * it), lateness is how far the send slipped past the due time.
 */
struct OpenLoopTiming
{
    double latencyMs = 0;
    double latenessMs = 0;
};
OpenLoopTiming openLoopTiming(double dueMs, double sentMs, double doneMs);

// --- executor metrics -----------------------------------------------------

/** One executed unit, times in ms from the moment the batch was posted. */
struct UnitTiming
{
    double doneMs = 0; ///< completion, as the completion callback saw it
    double runMs = 0;  ///< the unit's own wall time (UnitEvent::millis)
};

struct ExecutorMetrics
{
    double spanS = 0;     ///< post -> last completion
    double busyShare = 0; ///< sum(runMs) / (threads * span)
    double tailS = 0;     ///< last start (queue drained) -> last completion
    double queueWaitP50Ms = 0; ///< post -> unit start
    double queueWaitP90Ms = 0;
};

ExecutorMetrics executorMetrics(const std::vector<UnitTiming>& units,
                                unsigned threads);

// --- tracing --------------------------------------------------------------

/** One recorded interval; spans of one job or unit share a trace id. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span
    std::uint64_t trace = 0;
    std::string name;         ///< "<layer>.<what>", e.g. "sim.unit"
    double startMs = 0;       ///< from the tracer's epoch
    double endMs = 0;
};

/**
 * In-memory span recorder, thread-safe. Disabled tracers record nothing
 * and hand out id 0, so the untraced run pays one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t begin(const std::string& name, std::uint64_t parent,
                        std::uint64_t trace);
    void end(std::uint64_t id);

    /** Record a span whose interval was measured elsewhere. */
    void record(const std::string& name, std::uint64_t parent,
                std::uint64_t trace, Clock::time_point start,
                Clock::time_point end);

    std::vector<Span> spans() const;

    /** JSON-lines dump: one span object per line. */
    void writeJsonLines(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::uint64_t nextId_ = 0;
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::size_t> open_; ///< id -> index in spans_
};

/** RAII span; a disabled tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const std::string& name,
               std::uint64_t parent = 0, std::uint64_t trace = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer& tracer_;
    std::uint64_t id_;
};

/**
 * Self time per layer (the span-name prefix before the first '.'): each
 * span's duration minus the part of its interval that its children
 * cover, children clipped to the parent and overlaps counted once.
 */
std::map<std::string, double>
selfTimeByLayer(const std::vector<Span>& spans);

// --- report ---------------------------------------------------------------

/** A metric the benchmark promises to print, with its unit. */
struct MetricName
{
    const char* name;
    const char* unit;
};

struct Metric
{
    double value = 0;
    std::string note; ///< sample count / percentile, for the human report
};

/** What one run prints: human-readable lines, then one JSON line. */
struct Report
{
    std::string workload;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few mismatch messages
    std::map<std::string, Metric> metrics;
    std::vector<std::pair<std::string, std::string>> facts; ///< header

    /** Count one failed operation (a mismatch or a failed request). */
    void fail(const std::string& why);
    void set(const std::string& name, double value, std::string note = {});
    void fact(std::string key, std::string value);

    /**
     * Print the header, @p endToEnd, @p perLayer (traced runs) and the
     * verdict; the last stdout line is the result object carrying the
     * end-to-end metrics (@p traced false) or the per-layer ones. A
     * per-layer metric the workload never set reads 0; a missing
     * end-to-end metric is a benchmark bug and throws.
     */
    void print(bool traced, const std::vector<MetricName>& endToEnd,
               const std::vector<MetricName>& perLayer) const;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_CORE_HPP
