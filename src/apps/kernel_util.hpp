/**
 * @file
 * Helpers for writing warp-level SIMT kernels: coalesced/gather address
 * set construction and the lane-tile edge operator every app's push and
 * pull loops run on.
 *
 * An edge loop builds a LaneTile from the warp and the app state, narrows
 * it with mask(), and for each slot j < maxDegree() gather()s the slot's
 * col lines, co_awaits their load, then walks the slot's edges with
 * forSlot() to build the next AddrSet or apply the per-edge body. The
 * app picks push or pull once per launch, with launchDirected().
 */

#ifndef GGA_APPS_KERNEL_UTIL_HPP
#define GGA_APPS_KERNEL_UTIL_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "apps/app.hpp"
#include "graph/csr.hpp"
#include "sim/address_space.hpp"
#include "sim/warp.hpp"
#include "support/rng.hpp"

namespace gga::kutil {

/** Line address containing byte address @p a. */
inline Addr
lineOf(Addr a, std::uint32_t line_bytes)
{
    return a & ~static_cast<Addr>(line_bytes - 1);
}

/** Add the (deduplicated) line of element @p idx of @p buf. */
template <typename T>
void
addElem(AddrSet& s, const DeviceBuffer<T>& buf, std::size_t idx,
        std::uint32_t line_bytes)
{
    s.pushUnique(lineOf(buf.addrOf(idx), line_bytes));
}

/** Add the lines of the contiguous range [first, first+count) of @p buf. */
template <typename T>
void
addRange(AddrSet& s, const DeviceBuffer<T>& buf, std::size_t first,
         std::size_t count, std::uint32_t line_bytes)
{
    if (count == 0)
        return;
    const Addr lo = lineOf(buf.addrOf(first), line_bytes);
    const Addr hi = lineOf(buf.addrOf(first + count - 1), line_bytes);
    for (Addr line = lo; line <= hi; line += line_bytes)
        s.pushUnique(line);
}

/** Word address of element @p idx (atomic granularity). */
template <typename T>
Addr
wordOf(const DeviceBuffer<T>& buf, std::size_t idx)
{
    return buf.addrOf(idx);
}

/**
 * Unique deterministic 32-bit priority of vertex @p v among @p n: hashed
 * bits above, the id below (Pannotia-style int priorities, made
 * collision-free). @p salt perturbs the hashed bits only; uniqueness
 * comes from the id bits. MIS salts with the run seed, CLR with
 * 0x636c72 ^ seed, and seed 0 reproduces the unseeded paper runs.
 */
inline std::uint32_t
priorityOf(VertexId v, VertexId n, std::uint64_t salt)
{
    std::uint32_t id_bits = 1;
    while ((1u << id_bits) < n)
        ++id_bits;
    return (static_cast<std::uint32_t>(hashMix64(v ^ salt)) << id_bits) | v;
}

/**
 * Lane-tile edge operator (after Gunrock's advance): lane l of the warp
 * owns vertex firstThread() + l and, at slot j, that vertex's j-th edge.
 *
 * Contract:
 *  - Each lane's degree and edge begin are read once, at construction.
 *    Every lane starts active; mask() narrows the set, and retire() drops
 *    one lane mid-loop (also from inside a forSlot() body). maxDegree()
 *    counts active lanes only.
 *  - Slot j holds the edges of the active lanes whose degree exceeds j.
 *    gather() and forSlot() walk those lanes in lane order.
 *  - AddrSet order pins the simulated bytes: the L1 takes a set's lines
 *    in insertion order, so a kernel that reorders a gather, or fuses two
 *    gathers in a different interleaving, changes simulated timing (and
 *    the determinism goldens), not just host time.
 */
class LaneTile
{
  public:
    LaneTile(const Warp& w, const GraphState& st)
        : st_(st), v0_(w.firstThread()), lanes_(w.laneCount())
    {
        for (std::uint32_t l = 0; l < lanes_; ++l) {
            deg_[l] = st.g.degree(v0_ + l);
            begin_[l] = st.g.edgeBegin(v0_ + l);
            active_[l] = true;
        }
    }

    bool active(std::uint32_t l) const { return active_[l]; }

    /**
     * Keep active only the lanes whose vertex satisfies @p pred.
     * @return whether any lane is left.
     */
    template <typename Pred>
    bool
    mask(Pred pred)
    {
        bool any = false;
        for (std::uint32_t l = 0; l < lanes_; ++l) {
            active_[l] = active_[l] && pred(v0_ + l);
            any |= active_[l];
        }
        return any;
    }

    /** Drop lane @p l from every later slot. */
    void retire(std::uint32_t l) { active_[l] = false; }

    /** Largest degree over the active lanes: the slot count. */
    std::uint32_t
    maxDegree() const
    {
        std::uint32_t m = 0;
        for (std::uint32_t l = 0; l < lanes_; ++l) {
            if (active_[l])
                m = std::max(m, deg_[l]);
        }
        return m;
    }

    /** Call @p f(lane, v, e, nbr) for each edge of slot @p j. */
    template <typename F>
    void
    forSlot(std::uint32_t j, F f) const
    {
        for (std::uint32_t l = 0; l < lanes_; ++l) {
            if (active_[l] && j < deg_[l]) {
                const EdgeId e = begin_[l] + j;
                f(l, v0_ + l, e, st_.g.edgeTarget(e));
            }
        }
    }

    /**
     * Reset @p el to the col lines of slot @p j's edges, each followed by
     * its weight line when @p with_weight.
     * @return whether the slot has any edge.
     */
    bool
    gather(AddrSet& el, std::uint32_t j, bool with_weight = false) const
    {
        el.clear();
        for (std::uint32_t l = 0; l < lanes_; ++l) {
            if (active_[l] && j < deg_[l]) {
                const EdgeId e = begin_[l] + j;
                addElem(el, st_.gb.col, e, st_.lb);
                if (with_weight)
                    addElem(el, st_.gb.weight, e, st_.lb);
            }
        }
        return !el.empty();
    }

  private:
    const GraphState& st_;
    VertexId v0_;
    std::uint32_t lanes_;
    std::uint32_t deg_[kMaxWarpLanes];
    EdgeId begin_[kMaxWarpLanes];
    bool active_[kMaxWarpLanes];
};

/**
 * Launch the @p push or @p pull kernel, as @p prop says, under the name
 * @p name + ".push" or ".pull": the one place an app picks a direction.
 */
template <typename State>
void
launchDirected(Gpu& gpu, UpdateProp prop, const std::string& name,
               std::uint32_t threads, State& st,
               WarpTask (*push)(Warp&, State&),
               WarpTask (*pull)(Warp&, State&))
{
    const bool is_push = prop == UpdateProp::Push;
    WarpTask (*kernel)(Warp&, State&) = is_push ? push : pull;
    gpu.launch(name + (is_push ? ".push" : ".pull"), threads,
               [&st, kernel](Warp& w) { return kernel(w, st); });
}

} // namespace gga::kutil

#endif // GGA_APPS_KERNEL_UTIL_HPP
