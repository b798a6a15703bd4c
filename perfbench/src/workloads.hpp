/**
 * @file
 * The four benchmark workloads and the metric names every run prints.
 *
 * Each workload drives the program only through its public modules —
 * graph (GraphStore, snapshots), eval/api (manifests, Session, TaskPool),
 * apps+sim (the RunResult of each unit) and serve (the HTTP API of a
 * gga_serve child) — and times those calls from here.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serveBin; ///< gga_serve executable (serve_mixed)
    std::string outDir;   ///< scratch files and trace output
};

/**
 * Executor width of every workload, fixed so that runs on different
 * hosts compare.
 */
inline constexpr unsigned kThreads = 4;

/** Input scale of the sweeps and of served jobs. */
inline constexpr double kSweepScale = 0.01;
inline constexpr double kServeScale = 0.02;

/** Printed by every workload with --trace 0 (BENCHMARK.json end_to_end). */
inline const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"job_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_p95_ms", "ms"},
    {"units_per_s", "1/s"},
};

/**
 * Printed by every workload with --trace 1 (BENCHMARK.json per_layer); a
 * layer a workload does not exercise reads 0.
 */
inline const std::vector<MetricName> kPerLayer = {
    {"sim.events", "count"},
    {"sim.cycles", "cycles"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.unit_ms_p50", "ms"},
    {"sim.unit_ms_p90", "ms"},
    {"sim.unit_ms.PR", "ms"},
    {"sim.unit_ms.SSSP", "ms"},
    {"sim.unit_ms.MIS", "ms"},
    {"sim.unit_ms.CLR", "ms"},
    {"sim.unit_ms.BC", "ms"},
    {"sim.unit_ms.CC", "ms"},
    {"sim.ns_per_event.gpu", "ns"},
    {"sim.ns_per_event.denovo", "ns"},
    {"sim.l2.atomics", "count"},
    {"sim.l1.atomic_hits", "count"},
    {"sim.denovo.ownership_requests", "count"},
    {"sim.denovo.ownership_forwards", "count"},
    {"sim.flushed_lines", "count"},
    {"sim.invalidated_lines", "count"},
    {"sim.l1.load_hit_ratio", "ratio"},
    {"sim.l1.retries", "count"},
    {"sim.l2.read_miss_ratio", "ratio"},
    {"sim.dram.reads", "count"},
    {"sim.dram.writes", "count"},
    {"sim.stall.busy", "cycles"},
    {"sim.stall.comp", "cycles"},
    {"sim.stall.data", "cycles"},
    {"sim.stall.sync", "cycles"},
    {"sim.stall.idle", "cycles"},
    {"api.busy_share", "ratio"},
    {"api.tail_s", "s"},
    {"api.queue_wait_ms_p50", "ms"},
    {"api.queue_wait_ms_p90", "ms"},
    {"api.steals", "count"},
    {"eval.manifest_ms", "ms"},
    {"eval.collect_ms", "ms"},
    {"eval.serialize_ms", "ms"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.submit_ms_p95", "ms"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"serve.results_ms_p50", "ms"},
    {"serve.unit_ms_mean", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.slo_ratio", "ratio"},
    {"serve.interactive_sent", "count"},
    {"client.lateness_ms_p95", "ms"},
    {"graph.resolve_ms", "ms"},
    {"graph.hits", "count"},
    {"graph.misses", "count"},
    {"graph.synth_ms", "ms"},
    {"graph.save_ms", "ms"},
    {"graph.mmap_load_ms", "ms"},
    {"graph.bytes", "bytes"},
    {"graph.warm_pass_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.window_s", "s"},
    {"trace.self_ms.client", "ms"},
    {"trace.self_ms.serve", "ms"},
    {"trace.self_ms.api", "ms"},
    {"trace.self_ms.eval", "ms"},
    {"trace.self_ms.sim", "ms"},
    {"trace.self_ms.graph", "ms"},
    {"trace.traced_job_s", "s"},
    {"trace.untraced_job_s", "s"},
};

/** Peak resident set (VmHWM) of process @p pid (0 = this process), MB. */
double peakRssMb(int pid = 0);

/** sweep_pull (@p push false) or sweep_push. */
void runSweep(const Options& opts, bool push, Report& report,
              Tracer& tracer);

/** Open-loop interactive + closed-loop batch load on a gga_serve child. */
void runServeMixed(const Options& opts, Report& report, Tracer& tracer);

/** Scale-1.0 inputs through GraphStore: cold snapshot dir, then warm. */
void runGraphCold(const Options& opts, Report& report, Tracer& tracer);

/** Per-layer self times and span count of a traced run. */
void addTraceMetrics(const Tracer& tracer, Report& report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
