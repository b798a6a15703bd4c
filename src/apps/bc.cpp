/**
 * @file
 * Betweenness centrality pieces for one source (paper: BC). Static
 * traversal; source control (frontier predicate); symmetric information.
 *
 * Level-synchronous forward BFS computing shortest-path counts (sigma),
 * then backward dependency accumulation (delta). Push uses atomicAdds
 * into sigma / the backward accumulator; pull gathers from neighbors.
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"

namespace gga {

namespace {

struct BcState : GraphState
{
    BcState(Gpu& gpu, const CsrGraph& graph)
        : GraphState(gpu, graph),
          level(gpu.mem(), graph.numVertices(), "bc.level"),
          sigma(gpu.mem(), graph.numVertices(), "bc.sigma"),
          delta(gpu.mem(), graph.numVertices(), "bc.delta"),
          acc(gpu.mem(), graph.numVertices(), "bc.acc")
    {
    }

    DeviceBuffer<std::uint32_t> level;
    DeviceBuffer<double> sigma;
    DeviceBuffer<double> delta;
    DeviceBuffer<double> acc;
    std::uint32_t curLevel = 0;
};

WarpTask
bcInit(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.level[v] = kInfDist;
        st.sigma[v] = 0.0;
        st.delta[v] = 0.0;
        st.acc[v] = 0.0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.level, v0, lanes, st.lb);
    kutil::addRange(wr, st.sigma, v0, lanes, st.lb);
    co_await w.store(wr);
    wr.clear();
    kutil::addRange(wr, st.delta, v0, lanes, st.lb);
    kutil::addRange(wr, st.acc, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
bcSeed(Warp& w, BcState& st)
{
    st.level[0] = 0;
    st.sigma[0] = 1.0;
    AddrSet wr;
    kutil::addElem(wr, st.level, 0, st.lb);
    kutil::addElem(wr, st.sigma, 0, st.lb);
    co_await w.store(wr);
}

WarpTask
bcFwdPush(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    if (!tile.mask([&](VertexId v) { return st.level[v] == lv; }))
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    co_await w.load(rd);

    AddrSet el, ll, words, newly;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        ll.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId t) {
            kutil::addElem(ll, st.level, t, st.lb);
        });
        // Target-level gather: the tpred cost BC's push cannot avoid.
        co_await w.load(ll);
        words.clear();
        newly.clear();
        tile.forSlot(j, [&](auto, VertexId v, auto, VertexId t) {
            if (st.level[t] == kInfDist) {
                st.level[t] = lv + 1; // benign same-value race
                kutil::addElem(newly, st.level, t, st.lb);
            }
            if (st.level[t] == lv + 1) {
                st.sigma[t] += st.sigma[v];
                words.pushUnique(kutil::wordOf(st.sigma, t));
            }
        });
        if (!words.empty())
            co_await w.atomic(words, /*needs_value=*/false);
        if (!newly.empty())
            co_await w.store(newly);
    }
}

WarpTask
bcFwdPull(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.level[v] == kInfDist; });
    double acc[kMaxWarpLanes] = {};
    bool found[kMaxWarpLanes] = {};
    AddrSet el, ll, sl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        ll.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            kutil::addElem(ll, st.level, s, st.lb);
        });
        co_await w.load(ll);
        sl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            if (st.level[s] == lv)
                kutil::addElem(sl, st.sigma, s, st.lb);
        });
        if (sl.empty())
            continue;
        co_await w.load(sl);
        tile.forSlot(j, [&](std::uint32_t l, auto, auto, VertexId s) {
            if (st.level[s] == lv) {
                acc[l] += st.sigma[s];
                found[l] = true;
            }
        });
        co_await w.compute(1);
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (found[l]) {
            st.level[v] = lv + 1;
            st.sigma[v] = acc[l];
            kutil::addElem(wr, st.level, v, st.lb);
            kutil::addElem(wr, st.sigma, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
bcBwdPush(Warp& w, BcState& st)
{
    // Sources are the deeper vertices (level == curLevel + 1); they push
    // (1 + delta)/sigma into the accumulators of their predecessors.
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    if (!tile.mask([&](VertexId v) { return st.level[v] == lv + 1; }))
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    kutil::addRange(rd, st.delta, v0, lanes, st.lb);
    co_await w.load(rd);

    AddrSet el, ll, words;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        ll.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId t) {
            kutil::addElem(ll, st.level, t, st.lb);
        });
        co_await w.load(ll);
        words.clear();
        tile.forSlot(j, [&](auto, VertexId u, auto, VertexId t) {
            if (st.level[t] == lv && st.sigma[u] > 0.0) {
                st.acc[t] += (1.0 + st.delta[u]) / st.sigma[u];
                words.pushUnique(kutil::wordOf(st.acc, t));
            }
        });
        if (!words.empty())
            co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
bcBwdFinalize(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;
    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);
    kutil::LaneTile tile(w, st);
    if (!tile.mask([&](VertexId v) { return st.level[v] == lv; }))
        co_return;
    rd.clear();
    kutil::addRange(rd, st.acc, v0, lanes, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(2);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (tile.active(l)) {
            st.delta[v] = st.sigma[v] * st.acc[v];
            kutil::addElem(wr, st.delta, v, st.lb);
        }
    }
    co_await w.store(wr);
}

WarpTask
bcBwdPull(Warp& w, BcState& st)
{
    // Predecessors (level == curLevel) gather from their successors.
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    if (!tile.mask([&](VertexId v) { return st.level[v] == lv; }))
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    co_await w.load(rd);

    double acc[kMaxWarpLanes] = {};
    AddrSet el, ll, sl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        ll.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId t) {
            kutil::addElem(ll, st.level, t, st.lb);
        });
        co_await w.load(ll);
        sl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId t) {
            if (st.level[t] == lv + 1) {
                kutil::addElem(sl, st.sigma, t, st.lb);
                kutil::addElem(sl, st.delta, t, st.lb);
            }
        });
        if (sl.empty())
            continue;
        co_await w.load(sl);
        tile.forSlot(j, [&](std::uint32_t l, auto, auto, VertexId t) {
            if (st.level[t] == lv + 1 && st.sigma[t] > 0.0)
                acc[l] += (1.0 + st.delta[t]) / st.sigma[t];
        });
        co_await w.compute(1);
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (tile.active(l)) {
            st.delta[v] = st.sigma[v] * acc[l];
            kutil::addElem(wr, st.delta, v, st.lb);
        }
    }
    co_await w.store(wr);
}

RunResult
runBc(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
      std::uint64_t /*seed*/, AppOutput* out)
{
    Gpu gpu(params, cfg.coh, cfg.con);
    BcState st(gpu, g);
    const VertexId n = g.numVertices();

    gpu.launch("bc.init", n, [&st](Warp& w) { return bcInit(w, st); });
    gpu.launch("bc.seed", 1, [&st](Warp& w) { return bcSeed(w, st); });

    // Forward BFS.
    std::uint32_t max_level = 0;
    for (st.curLevel = 0; st.curLevel < kMaxSweeps; ++st.curLevel) {
        kutil::launchDirected(gpu, cfg.prop, "bc.fwd", n, st, bcFwdPush,
                              bcFwdPull);
        bool frontier = false;
        for (VertexId v = 0; v < n && !frontier; ++v)
            frontier = st.level[v] == st.curLevel + 1;
        if (!frontier) {
            max_level = st.curLevel;
            break;
        }
    }

    // Backward dependency accumulation.
    for (std::uint32_t lv = max_level; lv-- > 0;) {
        st.curLevel = lv;
        kutil::launchDirected(gpu, cfg.prop, "bc.bwd", n, st, bcBwdPush,
                              bcBwdPull);
        // Push scatters into acc; a second pass turns it into delta.
        if (cfg.prop == UpdateProp::Push)
            gpu.launch("bc.bwd.fin", n,
                       [&st](Warp& w) { return bcBwdFinalize(w, st); });
    }

    if (out)
        *out = BcOutput{st.delta.host(), st.level.host(), st.sigma.host()};
    return collectResult(gpu);
}

} // namespace

void
registerBcApp(AppRegistry& reg)
{
    reg.add(AppId::Bc, &runBc);
}

} // namespace gga
