/**
 * @file
 * perfbench: GGA-Sim's benchmark driver. One run measures one workload:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--serve-bin PATH] [--out-dir DIR] [--revision REV]
 *
 * W is sweep_pull, sweep_push, serve_mixed or graph_cold. The run prints
 * a human-readable report (host fingerprint, revision, repeat and sample
 * counts, exact simulator counts, failures) and, as its last line, one
 * JSON object {correct, attempted, failed, metrics}: the end-to-end
 * metrics untraced, the per-layer metrics with --trace 1. A traced run
 * also writes its spans as JSON lines into the output directory.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
peakRssMb(int pid)
{
    const std::string path = pid == 0
                                 ? std::string("/proc/self/status")
                                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in " + path);
}

void
addTraceMetrics(const Tracer& tracer, Report& report)
{
    const std::vector<Span> spans = tracer.spans();
    double first = 0, last = 0;
    for (const Span& s : spans) {
        first = first == 0 ? s.startMs : std::min(first, s.startMs);
        last = std::max(last, s.endMs);
    }
    report.set("trace.spans", static_cast<double>(spans.size()));
    report.set("trace.window_s", (last - first) / 1000.0);
    for (const auto& [layer, ms] : selfTimeByLayer(spans))
        report.set("trace.self_ms." + layer, ms);
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep_pull|sweep_push|serve_mixed|graph_cold --seed N "
                 "--seconds S --trace 0|1 [--serve-bin PATH] "
                 "[--out-dir DIR] [--revision REV]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opts;
    std::string revision = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty() || value[0] == '-')
                usage("--seed wants a non-negative integer");
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opts.seconds > 0))
                usage("--seconds wants a positive number");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            opts.trace = value == "1";
        } else if (arg == "--serve-bin") {
            opts.serveBin = value;
        } else if (arg == "--out-dir") {
            opts.outDir = value;
        } else if (arg == "--revision") {
            revision = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (opts.outDir.empty())
        usage("--out-dir is required");

    Report report;
    report.workload = opts.workload;
    report.fact("seed", std::to_string(opts.seed));
    report.fact("seconds", std::to_string(opts.seconds));
    report.fact("traced", opts.trace ? "yes" : "no");
    report.fact("revision", revision);
    report.fact("cpu", cpuModel());
    report.fact("cores", std::to_string(std::thread::hardware_concurrency()));
    report.fact("compiler", __VERSION__);
    report.fact("build_type", PERFBENCH_BUILD_TYPE);
    report.fact("executor_threads", std::to_string(kThreads));

    Tracer tracer(opts.trace);
    try {
        if (opts.workload == "sweep_pull" || opts.workload == "sweep_push")
            runSweep(opts, opts.workload == "sweep_push", report, tracer);
        else if (opts.workload == "serve_mixed")
            runServeMixed(opts, report, tracer);
        else if (opts.workload == "graph_cold")
            runGraphCold(opts, report, tracer);
        else
            usage("unknown workload '" + opts.workload + "'");
        if (opts.trace) {
            addTraceMetrics(tracer, report);
            const std::string path = opts.outDir + "/trace-" +
                                     opts.workload + "-" +
                                     std::to_string(opts.seed) + ".jsonl";
            tracer.writeJsonLines(path);
            report.fact("trace_file", path);
        }
        report.print(opts.trace, kEndToEnd, kPerLayer);
    } catch (const std::exception& err) {
        std::fprintf(stderr, "perfbench %s: %s\n", opts.workload.c_str(),
                     err.what());
        return 1;
    }
    return 0;
}
