/**
 * @file
 * perfbench_selftest: unit tests of the benchmark's own arithmetic — the
 * percentile rule, the open-loop schedule and lateness, span self time,
 * executor metrics from synthetic unit streams — and a check that
 * BENCHMARK.json names exactly the metrics the driver prints.
 *
 *   perfbench_selftest [path/to/BENCHMARK.json]
 *
 * Exits 0 when every check passes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "eval/run.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

bool
close(double a, double b)
{
    return std::abs(a - b) < 1e-9;
}

void
percentileRule()
{
    using perfbench::highestReportablePercentile;
    CHECK(highestReportablePercentile(0) == 0);
    CHECK(highestReportablePercentile(19) == 0);
    CHECK(highestReportablePercentile(20) == 50);
    CHECK(highestReportablePercentile(99) == 50);
    CHECK(highestReportablePercentile(100) == 90);
    CHECK(highestReportablePercentile(199) == 90);
    CHECK(highestReportablePercentile(200) == 95);
    CHECK(highestReportablePercentile(999) == 95);
    CHECK(highestReportablePercentile(1000) == 99);
    CHECK(highestReportablePercentile(10000) == 99.9);

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(perfbench::quantile(v, 0.5) == 50);
    CHECK(perfbench::quantile(v, 0.95) == 95);
    CHECK(perfbench::quantile(v, 1.0) == 100);
    CHECK(perfbench::quantile(v, 0.0) == 1);
    CHECK(perfbench::quantile({}, 0.5) == 0);
    CHECK(perfbench::median({3, 1, 2}) == 2);
}

void
openLoopSchedule()
{
    const auto a = perfbench::poissonArrivals(7, 600, 20);
    const auto b = perfbench::poissonArrivals(7, 600, 20);
    const auto c = perfbench::poissonArrivals(8, 600, 20);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a.size() == 600);
    CHECK(std::is_sorted(a.begin(), a.end()));
    CHECK(a.front() >= 0 && a.back() < 20000);
    // Poisson gaps: mean 1/rate, and about as many gaps above the mean
    // as an exponential has (e^-1 of them), within a loose band.
    std::size_t longGaps = 0;
    for (std::size_t i = 1; i < a.size(); ++i)
        longGaps += a[i] - a[i - 1] > 20000.0 / 600;
    CHECK(longGaps > 0.30 * 599 && longGaps < 0.44 * 599);

    // The request mix: a seeded permutation, the same for the same seed.
    const auto order = perfbench::seededOrder(7, 330);
    CHECK(order == perfbench::seededOrder(7, 330));
    CHECK(order != perfbench::seededOrder(8, 330));
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    bool permutation = sorted.size() == 330;
    for (std::size_t i = 0; permutation && i < sorted.size(); ++i)
        permutation = sorted[i] == i;
    CHECK(permutation);

    // Latency counts from the due time, lateness is the send's slip.
    const perfbench::OpenLoopTiming late =
        perfbench::openLoopTiming(100, 130, 180);
    CHECK(close(late.latencyMs, 80));
    CHECK(close(late.latenessMs, 30));
    const perfbench::OpenLoopTiming early =
        perfbench::openLoopTiming(100, 100, 120);
    CHECK(close(early.latencyMs, 20));
    CHECK(close(early.latenessMs, 0));
}

void
spanSelfTime()
{
    using perfbench::Span;
    // root [0,100] with children [10,30] and [20,50] (overlapping) and
    // [60,70]; the first child has a grandchild [12,18].
    const std::vector<Span> spans = {
        {1, 0, 1, "eval.sweep", 0, 100},  {2, 1, 1, "sim.unit", 10, 30},
        {3, 1, 1, "sim.unit", 20, 50},    {4, 1, 1, "api.post", 60, 70},
        {5, 2, 1, "graph.resolve", 12, 18}, {6, 0, 2, "eval.sweep", 0, 5},
        // A child running past its parent is clipped to the parent.
        {7, 6, 2, "sim.unit", 4, 9},
    };
    const auto self = perfbench::selfTimeByLayer(spans);
    // eval: 100 - 50 covered (10..50, 60..70) + 5 - 1 (clipped 4..5).
    CHECK(close(self.at("eval"), 54));
    // sim: (20 - 6) + 30 + 5.
    CHECK(close(self.at("sim"), 49));
    CHECK(close(self.at("api"), 10));
    CHECK(close(self.at("graph"), 6));

    perfbench::Tracer off(false);
    CHECK(off.begin("x.y", 0, 0) == 0);
    CHECK(off.spans().empty());
    perfbench::Tracer on(true);
    {
        perfbench::ScopedSpan root(on, "eval.root", 0, 9);
        perfbench::ScopedSpan child(on, "sim.child", root.id(), 9);
        CHECK(child.id() != root.id());
    }
    const std::vector<Span> got = on.spans();
    CHECK(got.size() == 2);
    CHECK(got[1].parent == got[0].id && got[1].trace == 9);
    CHECK(got[0].endMs >= got[1].endMs);
}

/** Completion times of synthetic UnitEvents, as the stream reports them. */
std::vector<perfbench::UnitTiming>
timings(const std::vector<gga::UnitEvent>& events,
        const std::vector<double>& doneMs)
{
    std::vector<perfbench::UnitTiming> out;
    for (std::size_t i = 0; i < events.size(); ++i)
        out.push_back({doneMs[i], events[i].millis});
    return out;
}

void
executorArithmetic()
{
    // Two threads: A 0-40, B 0-60, C 40-80, D 60-70.
    std::vector<gga::UnitEvent> events(4);
    const double run[] = {40, 60, 40, 10};
    for (std::size_t i = 0; i < 4; ++i) {
        events[i].index = i;
        events[i].millis = run[i];
    }
    const perfbench::ExecutorMetrics m =
        perfbench::executorMetrics(timings(events, {40, 60, 80, 70}), 2);
    CHECK(close(m.spanS, 0.080));
    CHECK(close(m.busyShare, 150.0 / 160.0));
    CHECK(close(m.tailS, 0.020)); // last start 60 -> last completion 80
    CHECK(close(m.queueWaitP50Ms, 0));
    CHECK(close(m.queueWaitP90Ms, 60));

    // A perfectly balanced stream: busy share 1, no tail beyond one unit.
    std::vector<gga::UnitEvent> even(4);
    for (auto& e : even)
        e.millis = 50;
    const perfbench::ExecutorMetrics b =
        perfbench::executorMetrics(timings(even, {50, 50, 100, 100}), 2);
    CHECK(close(b.busyShare, 1.0));
    CHECK(close(b.tailS, 0.050));
    CHECK(perfbench::executorMetrics({}, 4).busyShare == 0);
}

void
checkList(const gga::Json& list, const std::vector<perfbench::MetricName>& want)
{
    const gga::Json::Array& got = list.asArray();
    CHECK(got.size() == want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        const bool same = got[i].at("name").asString() == want[i].name &&
                          got[i].at("unit").asString() == want[i].unit;
        if (!same)
            std::fprintf(stderr, "metric %zu: BENCHMARK.json has %s [%s], "
                                 "perfbench prints %s [%s]\n",
                         i, got[i].at("name").asString().c_str(),
                         got[i].at("unit").asString().c_str(), want[i].name,
                         want[i].unit);
        CHECK(same);
    }
}

void
benchmarkJson(const char* path)
{
    std::ifstream in(path);
    CHECK(static_cast<bool>(in));
    if (!in)
        return;
    std::stringstream text;
    text << in.rdbuf();
    const gga::Json j = gga::Json::parse(text.str());
    checkList(j.at("end_to_end"), perfbench::kEndToEnd);
    checkList(j.at("per_layer"), perfbench::kPerLayer);
}

} // namespace

int
main(int argc, char** argv)
{
    percentileRule();
    openLoopSchedule();
    spanSelfTime();
    executorArithmetic();
    if (argc > 1)
        benchmarkJson(argv[1]);
    std::printf("perfbench_selftest: %s (%d failed checks)\n",
                g_failures == 0 ? "PASS" : "FAIL", g_failures);
    return g_failures == 0 ? 0 : 1;
}
