/**
 * @file
 * Maximal independent set (paper: MIS). Static traversal; symmetric
 * control and information: both sides predicate on "undecided" and read
 * priorities, so neither push nor pull elides more work structurally.
 *
 * Luby rounds with unique hashed priorities: each round every undecided
 * vertex whose priority exceeds every undecided neighbor's joins the set;
 * its neighbors drop out.
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"
#include "support/rng.hpp"

namespace gga {

namespace {

constexpr std::uint32_t kUndecided = 0;
constexpr std::uint32_t kInSet = 1;
constexpr std::uint32_t kOut = 2;

struct MisState
{
    MisState(Gpu& gpu, const CsrGraph& graph, std::uint64_t seed_)
        : g(graph),
          seed(seed_),
          gb(gpu.mem(), graph),
          state(gpu.mem(), graph.numVertices(), "mis.state"),
          pri(gpu.mem(), graph.numVertices(), "mis.pri"),
          nbrMax(gpu.mem(), graph.numVertices(), "mis.nbrMax"),
          winnerRound(gpu.mem(), graph.numVertices(), "mis.winnerRound"),
          lb(gpu.params().lineBytes)
    {
    }

    const CsrGraph& g;
    std::uint64_t seed;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> state;
    DeviceBuffer<std::uint32_t> pri;
    DeviceBuffer<std::uint32_t> nbrMax;
    DeviceBuffer<std::uint32_t> winnerRound;
    std::uint32_t lb;
    std::uint32_t round = 0;
};

/**
 * Unique deterministic 32-bit priority: hashed bits above, the id below
 * (Pannotia-style int priorities, made collision-free). @p seed perturbs
 * the hashed bits only — uniqueness comes from the id bits — and seed 0
 * reproduces the unseeded paper runs exactly.
 */
std::uint32_t
priorityOf(VertexId v, VertexId n, std::uint64_t seed)
{
    std::uint32_t id_bits = 1;
    while ((1u << id_bits) < n)
        ++id_bits;
    return (static_cast<std::uint32_t>(hashMix64(v ^ seed)) << id_bits) | v;
}

WarpTask
misInit(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.state[v] = kUndecided;
        st.pri[v] = priorityOf(v, st.g.numVertices(), st.seed);
        st.winnerRound[v] = kInfDist;
    }
    AddrSet wr;
    kutil::addRange(wr, st.state, v0, lanes, st.lb);
    kutil::addRange(wr, st.pri, v0, lanes, st.lb);
    kutil::addRange(wr, st.winnerRound, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
misReset(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes, st.lb);
    co_await w.load(rd);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.state[v] == kUndecided) {
            st.nbrMax[v] = 0;
            kutil::addElem(wr, st.nbrMax, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
misPropPush(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes, st.lb);
    kutil::addRange(rd, st.pri, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.state[v0 + l] == kUndecided;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }

    AddrSet el, words;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        co_await w.load(el);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                st.nbrMax[t] = std::max(st.nbrMax[t], st.pri[v]);
                words.pushUnique(kutil::wordOf(st.nbrMax, t));
            }
        }
        // Unconditional atomicMax: no target-state gather on the push path.
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
misPropPull(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    std::uint32_t acc[32] = {};
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.state[v0 + l] == kUndecided;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }

    AddrSet el, sl;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        sl.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        co_await w.load(el);
        // state[s] and pri[s] are independent loads off the same index;
        // the kernel issues them as one gather (compiler-scheduled ILP).
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                kutil::addElem(sl, st.state, s, st.lb);
                kutil::addElem(sl, st.pri, s, st.lb);
            }
        }
        co_await w.load(sl);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.state[s] == kUndecided)
                    acc[l] = std::max(acc[l], st.pri[s]);
            }
        }
        co_await w.compute(1);
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (active[l]) {
            st.nbrMax[v] = acc[l];
            kutil::addElem(wr, st.nbrMax, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
misDecide(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes, st.lb);
    kutil::addRange(rd, st.pri, v0, lanes, st.lb);
    kutil::addRange(rd, st.nbrMax, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(1);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.state[v] == kUndecided && st.pri[v] > st.nbrMax[v]) {
            st.state[v] = kInSet;
            st.winnerRound[v] = st.round;
            kutil::addElem(wr, st.state, v, st.lb);
            kutil::addElem(wr, st.winnerRound, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
misOutPush(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.winnerRound, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.winnerRound[v0 + l] == st.round;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    AddrSet el, words;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        co_await w.load(el);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.state[t] == kUndecided)
                    st.state[t] = kOut;
                words.pushUnique(kutil::wordOf(st.state, t));
            }
        }
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
misOutPull(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    bool drop[32] = {};
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.state[v0 + l] == kUndecided;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    AddrSet el, sl;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        sl.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && !drop[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        if (el.empty())
            break;
        co_await w.load(el);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && !drop[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                kutil::addElem(sl, st.state, s, st.lb);
            }
        }
        co_await w.load(sl);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && !drop[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.state[s] == kInSet)
                    drop[l] = true;
            }
        }
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (drop[l]) {
            st.state[v] = kOut;
            kutil::addElem(wr, st.state, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

RunResult
runMis(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
       std::uint64_t seed, AppOutput* out)
{
    Gpu gpu(params, cfg.coh, cfg.con);
    MisState st(gpu, g, seed);
    const VertexId n = g.numVertices();
    const bool push = cfg.prop == UpdateProp::Push;

    gpu.launch("mis.init", n, [&st](Warp& w) { return misInit(w, st); });
    for (st.round = 1; st.round <= kMaxSweeps; ++st.round) {
        gpu.launch("mis.reset", n,
                   [&st](Warp& w) { return misReset(w, st); });
        if (push)
            gpu.launch("mis.prop.push", n,
                       [&st](Warp& w) { return misPropPush(w, st); });
        else
            gpu.launch("mis.prop.pull", n,
                       [&st](Warp& w) { return misPropPull(w, st); });
        gpu.launch("mis.decide", n,
                   [&st](Warp& w) { return misDecide(w, st); });
        if (push)
            gpu.launch("mis.out.push", n,
                       [&st](Warp& w) { return misOutPush(w, st); });
        else
            gpu.launch("mis.out.pull", n,
                       [&st](Warp& w) { return misOutPull(w, st); });
        bool undecided = false;
        for (VertexId v = 0; v < n && !undecided; ++v)
            undecided = st.state[v] == kUndecided;
        if (!undecided)
            break;
    }

    if (out)
        *out = MisOutput{st.state.host()};
    return collectResult(gpu);
}

} // namespace

void
registerMisApp(AppRegistry& reg)
{
    reg.add(AppId::Mis, &runMis);
}

} // namespace gga
