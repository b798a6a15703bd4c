/**
 * @file
 * PageRank (paper: PR). Static traversal; symmetric control (no
 * predicates); source information (push hoists rank/degree of the source
 * into the outer loop, pull gathers per edge).
 *
 * Per iteration: prepare (contrib = rank/deg, zero next), propagate
 * (push: atomicAdd into next[t]; pull: gather contrib[s]), finalize
 * (rank = (1-d)/N + d*next).
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"

namespace gga {

namespace {

struct PrState : GraphState
{
    PrState(Gpu& gpu, const CsrGraph& graph)
        : GraphState(gpu, graph),
          rank(gpu.mem(), graph.numVertices(), "pr.rank"),
          next(gpu.mem(), graph.numVertices(), "pr.next"),
          contrib(gpu.mem(), graph.numVertices(), "pr.contrib")
    {
    }

    DeviceBuffer<float> rank;
    DeviceBuffer<float> next;
    DeviceBuffer<float> contrib;
};

constexpr double kDamping = 0.85;

WarpTask
prInit(Warp& w, PrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const float r0 = 1.0f / static_cast<float>(st.g.numVertices());
    for (std::uint32_t l = 0; l < lanes; ++l)
        st.rank[v0 + l] = r0;
    AddrSet wr;
    kutil::addRange(wr, st.rank, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
prPrepare(Warp& w, PrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.rank, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(2);
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        const std::uint32_t d = st.g.degree(v);
        st.contrib[v] = d ? st.rank[v] / static_cast<float>(d) : 0.0f;
        st.next[v] = 0.0f;
    }
    AddrSet wr;
    kutil::addRange(wr, st.contrib, v0, lanes, st.lb);
    kutil::addRange(wr, st.next, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
prPush(Warp& w, PrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const kutil::LaneTile tile(w, st);
    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.contrib, v0, lanes, st.lb);
    co_await w.load(rd);

    AddrSet el, words;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        words.clear();
        tile.forSlot(j, [&](auto, VertexId v, auto, VertexId t) {
            st.next[t] += st.contrib[v];
            words.pushUnique(kutil::wordOf(st.next, t));
        });
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
prPull(Warp& w, PrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const kutil::LaneTile tile(w, st);
    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    float acc[kMaxWarpLanes] = {};
    AddrSet el, pl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        pl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            kutil::addElem(pl, st.contrib, s, st.lb);
        });
        // Blocking sparse remote reads: the defining pull cost.
        co_await w.load(pl);
        tile.forSlot(j, [&](std::uint32_t l, auto, auto, VertexId s) {
            acc[l] += st.contrib[s];
        });
        co_await w.compute(1);
    }
    for (std::uint32_t l = 0; l < lanes; ++l)
        st.next[v0 + l] = acc[l];
    AddrSet wr;
    kutil::addRange(wr, st.next, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
prFinalize(Warp& w, PrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.next, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(2);
    const float base =
        (1.0f - static_cast<float>(kDamping)) / st.g.numVertices();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.rank[v] =
            base + static_cast<float>(kDamping) * st.next[v];
    }
    AddrSet wr;
    kutil::addRange(wr, st.rank, v0, lanes, st.lb);
    co_await w.store(wr);
}

RunResult
runPr(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
      std::uint64_t /*seed*/, AppOutput* out)
{
    Gpu gpu(params, cfg.coh, cfg.con);
    PrState st(gpu, g);
    const VertexId n = g.numVertices();

    gpu.launch("pr.init", n, [&st](Warp& w) { return prInit(w, st); });
    for (std::uint32_t it = 0; it < kPrIterations; ++it) {
        gpu.launch("pr.prepare", n,
                   [&st](Warp& w) { return prPrepare(w, st); });
        kutil::launchDirected(gpu, cfg.prop, "pr", n, st, prPush, prPull);
        gpu.launch("pr.finalize", n,
                   [&st](Warp& w) { return prFinalize(w, st); });
    }

    if (out)
        *out = PrOutput{st.rank.host()};
    return collectResult(gpu);
}

} // namespace

void
registerPrApp(AppRegistry& reg)
{
    reg.add(AppId::Pr, &runPr);
}

} // namespace gga
