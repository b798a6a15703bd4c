/**
 * @file
 * Connected components (paper: CC), adapted from the ECL-CC style of
 * Jaiganesh & Burtscher (HPDC'18): dynamic traversal with racy reads and
 * updates — the push+pull design point.
 *
 * Hook: for every edge (v, u) with u > v, chase both endpoints to their
 * roots (racy atomic loads whose values feed control flow) and link the
 * higher root under the lower (CAS). Compress: pointer-jump every vertex
 * to its root. Rounds repeat until no hook succeeds.
 *
 * The value-carrying atomics are why DRFrlx buys little here (Sec. IV-A4):
 * the warp must wait for each returned value regardless of relaxation.
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"

namespace gga {

namespace {

struct CcState : GraphState
{
    CcState(Gpu& gpu, const CsrGraph& graph)
        : GraphState(gpu, graph),
          parent(gpu.mem(), graph.numVertices(), "cc.parent")
    {
    }

    DeviceBuffer<std::uint32_t> parent;
    bool changed = false;
};

WarpTask
ccInit(Warp& w, CcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l)
        st.parent[v0 + l] = v0 + l;
    AddrSet wr;
    kutil::addRange(wr, st.parent, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
ccHook(Warp& w, CcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    // Lock-step root chase of each lane's own vertex: racy atomic loads,
    // values needed for control flow.
    VertexId rv[kMaxWarpLanes];
    for (std::uint32_t l = 0; l < lanes; ++l)
        rv[l] = v0 + l;
    AddrSet words;
    while (true) {
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (st.parent[rv[l]] != rv[l])
                words.pushUnique(kutil::wordOf(st.parent, rv[l]));
        }
        if (words.empty())
            break;
        co_await w.atomic(words, /*needs_value=*/true);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (st.parent[rv[l]] != rv[l])
                rv[l] = st.parent[rv[l]];
        }
    }

    const kutil::LaneTile tile(w, st);
    AddrSet el;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        el.clear();
        VertexId ru[kMaxWarpLanes];
        bool work[kMaxWarpLanes] = {};
        tile.forSlot(j, [&](std::uint32_t l, VertexId v, EdgeId e,
                            VertexId u) {
            if (u > v) { // each undirected pair processed once
                ru[l] = u;
                work[l] = true;
                kutil::addElem(el, st.gb.col, e, st.lb);
            }
        });
        if (el.empty())
            continue;
        co_await w.load(el);

        // Lock-step chase of the neighbors' roots.
        while (true) {
            words.clear();
            for (std::uint32_t l = 0; l < lanes; ++l) {
                if (work[l] && st.parent[ru[l]] != ru[l])
                    words.pushUnique(kutil::wordOf(st.parent, ru[l]));
            }
            if (words.empty())
                break;
            co_await w.atomic(words, /*needs_value=*/true);
            for (std::uint32_t l = 0; l < lanes; ++l) {
                if (work[l] && st.parent[ru[l]] != ru[l])
                    ru[l] = st.parent[ru[l]];
            }
        }

        // Union: CAS the higher root under the lower.
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (!work[l] || rv[l] == ru[l])
                continue;
            const VertexId hi = std::max(rv[l], ru[l]);
            const VertexId lo = std::min(rv[l], ru[l]);
            words.pushUnique(kutil::wordOf(st.parent, hi));
            if (st.parent[hi] == hi) {
                st.parent[hi] = lo; // CAS success
                st.changed = true;
            }
            // On failure another thread merged hi; the next round
            // re-processes this edge with fresher roots.
            rv[l] = std::min(rv[l], lo);
        }
        if (!words.empty())
            co_await w.atomic(words, /*needs_value=*/true);
    }
}

WarpTask
ccCompress(Warp& w, CcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    VertexId r[kMaxWarpLanes];
    for (std::uint32_t l = 0; l < lanes; ++l)
        r[l] = v0 + l;
    AddrSet words;
    while (true) {
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (st.parent[r[l]] != r[l])
                words.pushUnique(kutil::wordOf(st.parent, r[l]));
        }
        if (words.empty())
            break;
        co_await w.atomic(words, /*needs_value=*/true);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (st.parent[r[l]] != r[l])
                r[l] = st.parent[r[l]];
        }
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.parent[v] != r[l]) {
            st.parent[v] = r[l];
            kutil::addElem(wr, st.parent, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

RunResult
runCc(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
      std::uint64_t /*seed*/, AppOutput* out)
{
    Gpu gpu(params, cfg.coh, cfg.con);
    CcState st(gpu, g);
    const VertexId n = g.numVertices();

    gpu.launch("cc.init", n, [&st](Warp& w) { return ccInit(w, st); });
    for (std::uint32_t round = 0; round < kMaxSweeps; ++round) {
        st.changed = false;
        gpu.launch("cc.hook", n, [&st](Warp& w) { return ccHook(w, st); });
        gpu.launch("cc.compress", n,
                   [&st](Warp& w) { return ccCompress(w, st); });
        if (!st.changed)
            break;
    }

    if (out)
        *out = CcOutput{st.parent.host()};
    return collectResult(gpu);
}

} // namespace

void
registerCcApp(AppRegistry& reg)
{
    reg.add(AppId::Cc, &runCc);
}

} // namespace gga
