/**
 * @file
 * Graph coloring (paper: CLR). Static traversal; symmetric control;
 * target information (the accumulating neighborhood state sits at the
 * target, which pull hoists).
 *
 * Jones-Plassmann-style rounds with unique hashed priorities: in round r,
 * every uncolored vertex whose priority exceeds all uncolored neighbors'
 * takes color r.
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"

namespace gga {

namespace {

struct ClrState : GraphState
{
    ClrState(Gpu& gpu, const CsrGraph& graph, std::uint64_t seed_)
        : GraphState(gpu, graph),
          seed(seed_),
          color(gpu.mem(), graph.numVertices(), "clr.color"),
          pri(gpu.mem(), graph.numVertices(), "clr.pri"),
          nbrMax(gpu.mem(), graph.numVertices(), "clr.nbrMax")
    {
    }

    std::uint64_t seed;
    DeviceBuffer<std::uint32_t> color;
    DeviceBuffer<std::uint32_t> pri;
    DeviceBuffer<std::uint32_t> nbrMax;
    std::uint32_t round = 0;
};

WarpTask
clrInit(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.color[v] = kInfDist;
        st.pri[v] = kutil::priorityOf(v, st.g.numVertices(),
                                      0x636c72ull ^ st.seed);
        st.nbrMax[v] = 0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.color, v0, lanes, st.lb);
    kutil::addRange(wr, st.pri, v0, lanes, st.lb);
    kutil::addRange(wr, st.nbrMax, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
clrReset(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    co_await w.load(rd);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.color[v] == kInfDist) {
            st.nbrMax[v] = 0;
            kutil::addElem(wr, st.nbrMax, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
clrPropPush(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    kutil::addRange(rd, st.pri, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.color[v] == kInfDist; });
    AddrSet el, words;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        words.clear();
        tile.forSlot(j, [&](auto, VertexId v, auto, VertexId t) {
            st.nbrMax[t] = std::max(st.nbrMax[t], st.pri[v]);
            words.pushUnique(kutil::wordOf(st.nbrMax, t));
        });
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
clrPropPull(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.color[v] == kInfDist; });
    std::uint32_t acc[kMaxWarpLanes] = {};
    AddrSet el, cl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        // color[s] and pri[s] are independent loads off the same index;
        // the kernel issues them as one gather (compiler-scheduled ILP).
        cl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            kutil::addElem(cl, st.color, s, st.lb);
            kutil::addElem(cl, st.pri, s, st.lb);
        });
        co_await w.load(cl);
        tile.forSlot(j, [&](std::uint32_t l, auto, auto, VertexId s) {
            if (st.color[s] == kInfDist)
                acc[l] = std::max(acc[l], st.pri[s]);
        });
        co_await w.compute(1);
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (tile.active(l)) {
            st.nbrMax[v0 + l] = acc[l];
            kutil::addElem(wr, st.nbrMax, v0 + l, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
clrAssign(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    kutil::addRange(rd, st.pri, v0, lanes, st.lb);
    kutil::addRange(rd, st.nbrMax, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(1);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.color[v] == kInfDist && st.pri[v] > st.nbrMax[v]) {
            st.color[v] = st.round;
            kutil::addElem(wr, st.color, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

RunResult
runClr(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
       std::uint64_t seed, AppOutput* out)
{
    Gpu gpu(params, cfg.coh, cfg.con);
    ClrState st(gpu, g, seed);
    const VertexId n = g.numVertices();

    gpu.launch("clr.init", n, [&st](Warp& w) { return clrInit(w, st); });
    for (st.round = 1; st.round <= kMaxSweeps; ++st.round) {
        gpu.launch("clr.reset", n,
                   [&st](Warp& w) { return clrReset(w, st); });
        kutil::launchDirected(gpu, cfg.prop, "clr.prop", n, st, clrPropPush,
                              clrPropPull);
        gpu.launch("clr.assign", n,
                   [&st](Warp& w) { return clrAssign(w, st); });
        bool uncolored = false;
        for (VertexId v = 0; v < n && !uncolored; ++v)
            uncolored = st.color[v] == kInfDist;
        if (!uncolored)
            break;
    }

    if (out)
        *out = ClrOutput{st.color.host()};
    return collectResult(gpu);
}

} // namespace

void
registerClrApp(AppRegistry& reg)
{
    reg.add(AppId::Clr, &runClr);
}

} // namespace gga
