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

namespace gga {

namespace {

constexpr std::uint32_t kUndecided = 0;
constexpr std::uint32_t kInSet = 1;
constexpr std::uint32_t kOut = 2;

struct MisState : GraphState
{
    MisState(Gpu& gpu, const CsrGraph& graph, std::uint64_t seed_)
        : GraphState(gpu, graph),
          seed(seed_),
          state(gpu.mem(), graph.numVertices(), "mis.state"),
          pri(gpu.mem(), graph.numVertices(), "mis.pri"),
          nbrMax(gpu.mem(), graph.numVertices(), "mis.nbrMax"),
          winnerRound(gpu.mem(), graph.numVertices(), "mis.winnerRound")
    {
    }

    std::uint64_t seed;
    DeviceBuffer<std::uint32_t> state;
    DeviceBuffer<std::uint32_t> pri;
    DeviceBuffer<std::uint32_t> nbrMax;
    DeviceBuffer<std::uint32_t> winnerRound;
    std::uint32_t round = 0;
};

WarpTask
misInit(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.state[v] = kUndecided;
        st.pri[v] = kutil::priorityOf(v, st.g.numVertices(), st.seed);
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

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.state[v] == kUndecided; });
    AddrSet el, words;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        words.clear();
        tile.forSlot(j, [&](auto, VertexId v, auto, VertexId t) {
            st.nbrMax[t] = std::max(st.nbrMax[t], st.pri[v]);
            words.pushUnique(kutil::wordOf(st.nbrMax, t));
        });
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

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.state[v] == kUndecided; });
    std::uint32_t acc[kMaxWarpLanes] = {};
    AddrSet el, sl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        // state[s] and pri[s] are independent loads off the same index;
        // the kernel issues them as one gather (compiler-scheduled ILP).
        sl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            kutil::addElem(sl, st.state, s, st.lb);
            kutil::addElem(sl, st.pri, s, st.lb);
        });
        co_await w.load(sl);
        tile.forSlot(j, [&](std::uint32_t l, auto, auto, VertexId s) {
            if (st.state[s] == kUndecided)
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

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.winnerRound[v] == st.round; });
    AddrSet el, words;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        tile.gather(el, j);
        co_await w.load(el);
        words.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId t) {
            if (st.state[t] == kUndecided)
                st.state[t] = kOut;
            words.pushUnique(kutil::wordOf(st.state, t));
        });
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

    kutil::LaneTile tile(w, st);
    tile.mask([&](VertexId v) { return st.state[v] == kUndecided; });
    bool drop[kMaxWarpLanes] = {};
    AddrSet el, sl;
    for (std::uint32_t j = 0, maxd = tile.maxDegree(); j < maxd; ++j) {
        if (!tile.gather(el, j))
            break; // every lane left has dropped or run out of edges
        co_await w.load(el);
        sl.clear();
        tile.forSlot(j, [&](auto, auto, auto, VertexId s) {
            kutil::addElem(sl, st.state, s, st.lb);
        });
        co_await w.load(sl);
        tile.forSlot(j, [&](std::uint32_t l, auto, auto, VertexId s) {
            if (st.state[s] == kInSet) {
                drop[l] = true;
                tile.retire(l);
            }
        });
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

    gpu.launch("mis.init", n, [&st](Warp& w) { return misInit(w, st); });
    for (st.round = 1; st.round <= kMaxSweeps; ++st.round) {
        gpu.launch("mis.reset", n,
                   [&st](Warp& w) { return misReset(w, st); });
        kutil::launchDirected(gpu, cfg.prop, "mis.prop", n, st, misPropPush,
                              misPropPull);
        gpu.launch("mis.decide", n,
                   [&st](Warp& w) { return misDecide(w, st); });
        kutil::launchDirected(gpu, cfg.prop, "mis.out", n, st, misOutPush,
                              misOutPull);
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
