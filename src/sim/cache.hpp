/**
 * @file
 * Generic set-associative, LRU tag array. Shared by the per-SM L1s and the
 * L2 banks; coherence semantics live in the controllers, this class only
 * tracks line presence and state.
 *
 * Layout: struct-of-arrays, numSets x assoc row-major — the tags (u64),
 * the states (one byte each) and the LRU stamps (u64) live in three
 * parallel arrays. An invalid way's tag holds kNoLine, which is not
 * line-aligned, so a hit test is one tag compare per way; the flash
 * invalidation, flush and collect walks touch only the byte-wide states.
 * The set is hashMix64(line index) % numSets, a mask for power-of-two
 * set counts; others, such as a 48 KiB L1's 96 sets, take the modulo.
 */

#ifndef GGA_SIM_CACHE_HPP
#define GGA_SIM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/hashed_index.hpp"
#include "support/types.hpp"

namespace gga {

/** State of a cached line. Meaning depends on the owning controller. */
enum class LineState : std::uint8_t
{
    Invalid = 0,
    Valid,  ///< clean copy (GPU L1 / DeNovo non-owned / L2 clean)
    Dirty,  ///< modified, unflushed (GPU L1 write-combining / L2 vs DRAM)
    Owned,  ///< DeNovo L1 registered ownership (implies writable)
};

/** Set-associative LRU tag array. All addresses must be line-aligned. */
class SetAssocCache
{
  public:
    SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc,
                  std::uint32_t line_bytes);

    /** State of @p line; bumps LRU on hit. Invalid if absent. */
    LineState lookup(Addr line);

    /**
     * Mutable state pointer without an LRU bump; nullptr if absent. Write
     * only valid states through it: dropping a line is invalidate()'s
     * job, which also clears the tag.
     */
    LineState* find(Addr line);

    /** find() with lookup()'s LRU bump on a hit: one scan for both. */
    LineState* touch(Addr line);

    /** A displaced line from insert(). */
    struct Eviction
    {
        Addr line = 0;
        LineState state = LineState::Invalid;
    };

    /**
     * Insert @p line in state @p st (must not be present). Returns the
     * evicted valid line, if any.
     */
    Eviction insert(Addr line, LineState st);

    /** Drop @p line if present. */
    void invalidate(Addr line);

    /** Collect all lines currently in state @p st (not Invalid). */
    std::vector<Addr> collectLines(LineState st) const;

    /**
     * Append all lines in state @p st to @p out. Callers on the hot path
     * (release flushes) pass a reused scratch buffer so a flush does not
     * allocate a fresh vector.
     */
    void collectLines(LineState st, std::vector<Addr>& out) const;

    /**
     * Invalidate every line for which @p keep_owned is false or the state
     * is not Owned. Returns the number of lines invalidated. Used for
     * flash self-invalidation (GPU: everything; DeNovo: non-owned only).
     */
    std::uint64_t invalidateForAcquire(bool keep_owned);

    /** Downgrade all Dirty lines to Valid (after a release flush). */
    void cleanDirty();

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

  private:
    /** Tag of an invalid way; never equal to a line-aligned address. */
    static constexpr Addr kNoLine = 1;

    /** Index of the set's first way in the three arrays. */
    std::size_t
    setBase(Addr line) const
    {
        return static_cast<std::size_t>(setIndex_.of(line)) * assoc_;
    }

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    HashedIndex setIndex_;
    std::uint64_t useClock_ = 0;
    std::vector<Addr> tags_;
    std::vector<LineState> states_;
    std::vector<std::uint64_t> lastUse_;
};

} // namespace gga

#endif // GGA_SIM_CACHE_HPP
