/**
 * @file
 * Single-source shortest paths (paper: SSSP). Static traversal; source
 * control (the frontier predicate elides whole sources under push);
 * source information (dist[s] hoisted by push).
 *
 * Topology-driven Bellman-Ford with iteration-stamped frontier flags:
 * a vertex is on iteration i's frontier iff stamp[v] == i; improvements
 * stamp the target with i+1.
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

struct SsspState : GraphState
{
    SsspState(Gpu& gpu, const CsrGraph& graph)
        : GraphState(gpu, graph),
          dist(gpu.mem(), graph.numVertices(), "sssp.dist"),
          stamp(gpu.mem(), graph.numVertices(), "sssp.stamp")
    {
    }

    DeviceBuffer<std::uint32_t> dist;
    DeviceBuffer<std::uint32_t> stamp;
    std::uint32_t iter = 0;
};

WarpTask
ssspInit(Warp& w, SsspState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        st.dist[v0 + l] = kInfDist;
        st.stamp[v0 + l] = 0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.dist, v0, lanes, st.lb);
    kutil::addRange(wr, st.stamp, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
ssspSeed(Warp& w, SsspState& st)
{
    st.dist[0] = 0;
    st.stamp[0] = 1;
    AddrSet wr;
    kutil::addElem(wr, st.dist, 0, st.lb);
    kutil::addElem(wr, st.stamp, 0, st.lb);
    co_await w.store(wr);
}

WarpTask
ssspPush(Warp& w, SsspState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t iter = st.iter;

    AddrSet rd;
    kutil::addRange(rd, st.stamp, v0, lanes, st.lb);
    co_await w.load(rd);

    kutil::LaneTile tile(w, st);
    if (!tile.mask([&](VertexId v) { return st.stamp[v] == iter; }))
        co_return; // whole warp elided by the source predicate

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.dist, v0, lanes, st.lb);
    co_await w.load(rd);

    const bool weighted = st.g.hasWeights();
    AddrSet el, words, stamped;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j, weighted);
        co_await w.load(el);
        words.clear();
        stamped.clear();
        tile.forSlot(j, [&](auto, VertexId v, EdgeId e, VertexId t) {
            const std::uint64_t nd =
                static_cast<std::uint64_t>(st.dist[v]) + st.g.edgeWeight(e);
            words.pushUnique(kutil::wordOf(st.dist, t));
            if (nd < st.dist[t]) {
                st.dist[t] = static_cast<std::uint32_t>(nd);
                st.stamp[t] = iter + 1;
                kutil::addElem(stamped, st.stamp, t, st.lb);
            }
        });
        // Unconditional sparse remote atomicMin — off the critical path.
        co_await w.atomic(words, /*needs_value=*/false);
        if (!stamped.empty())
            co_await w.store(stamped);
    }
}

WarpTask
ssspPull(Warp& w, SsspState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t iter = st.iter;

    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.dist, v0, lanes, st.lb);
    co_await w.load(rd);

    const kutil::LaneTile tile(w, st);
    const bool weighted = st.g.hasWeights();
    std::uint64_t best[kMaxWarpLanes];
    for (std::uint32_t l = 0; l < lanes; ++l)
        best[l] = st.dist[v0 + l];

    AddrSet el, sl, dl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        sl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            kutil::addElem(sl, st.stamp, s, st.lb);
        });
        // Sparse remote reads of the frontier stamps (blocking).
        co_await w.load(sl);
        dl.clear();
        tile.forSlot(j, [&](auto, auto, EdgeId e, VertexId s) {
            if (st.stamp[s] == iter) {
                kutil::addElem(dl, st.dist, s, st.lb);
                if (weighted)
                    kutil::addElem(dl, st.gb.weight, e, st.lb);
            }
        });
        if (dl.empty())
            continue;
        co_await w.load(dl);
        tile.forSlot(j, [&](std::uint32_t l, auto, EdgeId e, VertexId s) {
            if (st.stamp[s] == iter)
                best[l] = std::min(best[l],
                                   static_cast<std::uint64_t>(st.dist[s]) +
                                       st.g.edgeWeight(e));
        });
        co_await w.compute(1);
    }

    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (best[l] < st.dist[v]) {
            st.dist[v] = static_cast<std::uint32_t>(best[l]);
            st.stamp[v] = iter + 1;
            kutil::addElem(wr, st.dist, v, st.lb);
            kutil::addElem(wr, st.stamp, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

RunResult
runSssp(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
        std::uint64_t /*seed*/, AppOutput* out)
{
    Gpu gpu(params, cfg.coh, cfg.con);
    SsspState st(gpu, g);
    const VertexId n = g.numVertices();

    gpu.launch("sssp.init", n, [&st](Warp& w) { return ssspInit(w, st); });
    gpu.launch("sssp.seed", 1, [&st](Warp& w) { return ssspSeed(w, st); });

    for (st.iter = 1; st.iter <= kMaxSweeps; ++st.iter) {
        kutil::launchDirected(gpu, cfg.prop, "sssp", n, st, ssspPush,
                              ssspPull);
        bool frontier = false;
        for (VertexId v = 0; v < n && !frontier; ++v)
            frontier = st.stamp[v] == st.iter + 1;
        if (!frontier)
            break;
    }
    if (st.iter > kMaxSweeps)
        GGA_WARN("SSSP hit the sweep cap without converging");

    if (out)
        *out = SsspOutput{st.dist.host()};
    return collectResult(gpu);
}

} // namespace

void
registerSsspApp(AppRegistry& reg)
{
    reg.add(AppId::Sssp, &runSssp);
}

} // namespace gga
