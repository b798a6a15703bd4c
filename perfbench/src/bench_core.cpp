#include "bench_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    // The epsilon keeps float noise (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n - 1e-9);
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
highestReportablePercentile(std::size_t n)
{
    double best = 0;
    for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        // Samples strictly beyond the nearest-rank p-th percentile.
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        if (n >= rank && n - rank >= 10)
            best = p;
    }
    return best;
}

std::vector<double>
poissonArrivals(std::uint64_t seed, std::size_t count, double durationS)
{
    gga::SplitRng rng(seed, 1);
    std::vector<double> due(count);
    for (double& t : due)
        t = rng.nextDouble() * durationS * 1000.0;
    std::sort(due.begin(), due.end());
    return due;
}

std::vector<std::size_t>
seededOrder(std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    gga::SplitRng rng(seed, 2);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    return order;
}

OpenLoopTiming
openLoopTiming(double dueMs, double sentMs, double doneMs)
{
    return OpenLoopTiming{doneMs - dueMs, std::max(0.0, sentMs - dueMs)};
}

ExecutorMetrics
executorMetrics(const std::vector<UnitTiming>& units, unsigned threads)
{
    ExecutorMetrics m;
    if (units.empty() || threads == 0)
        return m;
    double lastDone = 0, lastStart = 0, busyMs = 0;
    std::vector<double> waits;
    waits.reserve(units.size());
    for (const UnitTiming& u : units) {
        const double start = std::max(0.0, u.doneMs - u.runMs);
        lastDone = std::max(lastDone, u.doneMs);
        lastStart = std::max(lastStart, start);
        busyMs += u.runMs;
        waits.push_back(start);
    }
    m.spanS = lastDone / 1000.0;
    m.busyShare = lastDone > 0 ? busyMs / (threads * lastDone) : 0;
    m.tailS = (lastDone - lastStart) / 1000.0;
    m.queueWaitP50Ms = quantile(waits, 0.5);
    m.queueWaitP90Ms = quantile(waits, 0.9);
    return m;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t
Tracer::begin(const std::string& name, std::uint64_t parent,
              std::uint64_t trace)
{
    if (!enabled_)
        return 0;
    const double now = msBetween(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = ++nextId_;
    s.parent = parent;
    s.trace = trace;
    s.name = name;
    s.startMs = now;
    s.endMs = now;
    open_[s.id] = spans_.size();
    spans_.push_back(std::move(s));
    return nextId_;
}

void
Tracer::end(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double now = msBetween(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = open_.find(id);
    if (it == open_.end())
        return;
    spans_[it->second].endMs = now;
    open_.erase(it);
}

void
Tracer::record(const std::string& name, std::uint64_t parent,
               std::uint64_t trace, Clock::time_point start,
               Clock::time_point end)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = ++nextId_;
    s.parent = parent;
    s.trace = trace;
    s.name = name;
    s.startMs = msBetween(epoch_, start);
    s.endMs = msBetween(epoch_, end);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
Tracer::writeJsonLines(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    for (const Span& s : spans()) {
        gga::Json j = gga::Json::object();
        j.set("id", gga::Json(s.id));
        j.set("parent", gga::Json(s.parent));
        j.set("trace", gga::Json(s.trace));
        j.set("name", gga::Json(s.name));
        j.set("start_ms", gga::Json(s.startMs));
        j.set("end_ms", gga::Json(s.endMs));
        out << j.dump() << '\n';
    }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const std::string& name,
                       std::uint64_t parent, std::uint64_t trace)
    : tracer_(tracer), id_(tracer.begin(name, parent, trace))
{
}

ScopedSpan::~ScopedSpan()
{
    tracer_.end(id_);
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span>& spans)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startMs, s.endMs);
    std::map<std::string, double> self;
    for (const Span& s : spans) {
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<double, double>>& iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curStart = 0, curEnd = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startMs);
                b = std::min(b, s.endMs);
                if (b <= a)
                    continue;
                if (a > curEnd) {
                    if (curEnd > curStart)
                        covered += curEnd - curStart;
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd > curStart)
                covered += curEnd - curStart;
        }
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += std::max(0.0, (s.endMs - s.startMs) - covered);
    }
    return self;
}

void
Report::fail(const std::string& why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
Report::set(const std::string& name, double value, std::string note)
{
    metrics[name] = Metric{value, std::move(note)};
}

void
Report::fact(std::string key, std::string value)
{
    facts.emplace_back(std::move(key), std::move(value));
}

void
Report::print(bool traced, const std::vector<MetricName>& endToEnd,
              const std::vector<MetricName>& perLayer) const
{
    std::printf("== perfbench %s ==\n", workload.c_str());
    for (const auto& [k, v] : facts)
        std::printf("  %-22s %s\n", k.c_str(), v.c_str());
    gga::Json out = gga::Json::object();
    for (const bool layer : {false, true}) {
        if (layer && !traced)
            break;
        std::printf("%s\n", layer ? "per-layer:" : "end-to-end:");
        gga::Json json = gga::Json::object();
        for (const MetricName& m : layer ? perLayer : endToEnd) {
            const auto it = metrics.find(m.name);
            if (it == metrics.end() && !layer)
                throw std::logic_error(std::string("end-to-end metric ") +
                                       m.name + " was not measured");
            const Metric v = it == metrics.end() ? Metric{} : it->second;
            std::printf("  %-32s %18.6f %-7s %s\n", m.name, v.value, m.unit,
                        v.note.c_str());
            gga::Json one = gga::Json::object();
            one.set("value", gga::Json(v.value));
            one.set("unit", gga::Json(m.unit));
            json.set(m.name, std::move(one));
        }
        if (layer == traced)
            out.set("metrics", std::move(json));
    }
    std::printf("operations: %llu attempted, %llu failed -> %s\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                failed == 0 ? "correct" : "INCORRECT");
    for (const std::string& f : failures)
        std::printf("  failure: %s\n", f.c_str());
    out.set("correct", gga::Json(failed == 0));
    out.set("attempted", gga::Json(attempted));
    out.set("failed", gga::Json(failed));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
