/**
 * @file
 * Unit tests for the set-associative tag array: hits, LRU eviction, state
 * transitions, flash invalidation semantics for both protocols, and a
 * differential run against a naive array-of-ways reference model.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sim/cache.hpp"
#include "support/rng.hpp"

namespace gga {
namespace {

// A tiny 2-set, 2-way cache with 64B lines: 256 bytes total.
SetAssocCache
tinyCache()
{
    return SetAssocCache(256, 2, 64);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c = tinyCache();
    EXPECT_EQ(c.lookup(0), LineState::Invalid);
    c.insert(0, LineState::Valid);
    EXPECT_EQ(c.lookup(0), LineState::Valid);
}

TEST(Cache, LruOrderRespectsRecency)
{
    // Direct test with a known-colliding set: use a 1-set cache.
    SetAssocCache c(128, 2, 64); // 1 set, 2 ways
    c.insert(0, LineState::Valid);
    c.insert(64, LineState::Valid);
    // Touch line 0 so line 64 is LRU.
    EXPECT_EQ(c.lookup(0), LineState::Valid);
    const auto ev = c.insert(128, LineState::Valid);
    EXPECT_EQ(ev.line, 64u);
    EXPECT_EQ(ev.state, LineState::Valid);
    EXPECT_EQ(c.lookup(0), LineState::Valid);
    EXPECT_EQ(c.lookup(64), LineState::Invalid);
    EXPECT_EQ(c.lookup(128), LineState::Valid);
}

TEST(Cache, InsertReportsDirtyEviction)
{
    SetAssocCache c(128, 2, 64);
    c.insert(0, LineState::Dirty);
    c.insert(64, LineState::Valid);
    EXPECT_EQ(c.lookup(64), LineState::Valid); // 0 is LRU now? no: 0 older
    const auto ev = c.insert(128, LineState::Valid);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_EQ(ev.state, LineState::Dirty);
}

TEST(Cache, InvalidateSingleLine)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Owned);
    c.invalidate(0);
    EXPECT_EQ(c.lookup(0), LineState::Invalid);
}

TEST(Cache, FlashInvalidateKeepsOwnedWhenAsked)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Valid);
    c.insert(64, LineState::Owned);
    c.insert(128, LineState::Dirty);
    const std::uint64_t n = c.invalidateForAcquire(/*keep_owned=*/true);
    EXPECT_EQ(n, 2u); // Valid and Dirty dropped
    EXPECT_EQ(c.lookup(64), LineState::Owned);
    EXPECT_EQ(c.lookup(0), LineState::Invalid);
}

TEST(Cache, FlashInvalidateAllForGpu)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Valid);
    c.insert(64, LineState::Owned);
    EXPECT_EQ(c.invalidateForAcquire(/*keep_owned=*/false), 2u);
    EXPECT_EQ(c.lookup(64), LineState::Invalid);
}

TEST(Cache, CollectAndCleanDirty)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Dirty);
    c.insert(64, LineState::Valid);
    c.insert(128, LineState::Dirty);
    const auto dirty = c.collectLines(LineState::Dirty);
    EXPECT_EQ(dirty.size(), 2u);
    c.cleanDirty();
    EXPECT_TRUE(c.collectLines(LineState::Dirty).empty());
    EXPECT_EQ(c.lookup(0), LineState::Valid);
}

TEST(Cache, StateUpgradeInPlace)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Valid);
    LineState* st = c.find(0);
    ASSERT_NE(st, nullptr);
    *st = LineState::Owned;
    EXPECT_EQ(c.lookup(0), LineState::Owned);
}

/**
 * The tag array written the obvious way: one {line, state, lastUse}
 * record per way, the set picked by dividing, the victim the first
 * invalid way else the least recently used. SetAssocCache must agree
 * with it on every result.
 */
class ReferenceCache
{
  public:
    struct Way
    {
        Addr line = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
    };

    ReferenceCache(std::uint32_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes)
        : sets_(size_bytes / line_bytes / assoc),
          assoc_(assoc),
          lineBytes_(line_bytes),
          ways_(static_cast<std::size_t>(sets_) * assoc)
    {
    }

    LineState
    lookup(Addr line)
    {
        Way* w = find(line);
        if (!w)
            return LineState::Invalid;
        w->lastUse = ++clock_;
        return w->state;
    }

    Way*
    find(Addr line)
    {
        for (std::uint32_t i = 0; i < assoc_; ++i) {
            Way& w = ways_[base(line) + i];
            if (w.state != LineState::Invalid && w.line == line)
                return &w;
        }
        return nullptr;
    }

    SetAssocCache::Eviction
    insert(Addr line, LineState st)
    {
        Way* victim = nullptr;
        for (std::uint32_t i = 0; i < assoc_; ++i) {
            Way& w = ways_[base(line) + i];
            if (w.state == LineState::Invalid) {
                victim = &w;
                break;
            }
            if (!victim || w.lastUse < victim->lastUse)
                victim = &w;
        }
        SetAssocCache::Eviction ev;
        if (victim->state != LineState::Invalid)
            ev = {victim->line, victim->state};
        *victim = {line, st, ++clock_};
        return ev;
    }

    void
    invalidate(Addr line)
    {
        if (Way* w = find(line))
            w->state = LineState::Invalid;
    }

    std::vector<Addr>
    collectLines(LineState st) const
    {
        std::vector<Addr> out;
        for (const Way& w : ways_) {
            if (w.state == st)
                out.push_back(w.line);
        }
        return out;
    }

    std::uint64_t
    invalidateForAcquire(bool keep_owned)
    {
        std::uint64_t n = 0;
        for (Way& w : ways_) {
            if (w.state == LineState::Invalid ||
                (keep_owned && w.state == LineState::Owned))
                continue;
            w.state = LineState::Invalid;
            ++n;
        }
        return n;
    }

    void
    cleanDirty()
    {
        for (Way& w : ways_) {
            if (w.state == LineState::Dirty)
                w.state = LineState::Valid;
        }
    }

    std::uint32_t numSets() const { return sets_; }

  private:
    std::size_t
    base(Addr line) const
    {
        return static_cast<std::size_t>(hashMix64(line / lineBytes_) %
                                        sets_) *
               assoc_;
    }

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint64_t clock_ = 0;
    std::vector<Way> ways_;
};

struct Geometry
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t sets; ///< expected set count
};

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, RandomOperationsAgree)
{
    const Geometry g = GetParam();
    constexpr std::uint32_t kLine = 64;
    SetAssocCache cache(g.sizeBytes, g.assoc, kLine);
    ReferenceCache ref(g.sizeBytes, g.assoc, kLine);
    ASSERT_EQ(cache.numSets(), g.sets);
    ASSERT_EQ(ref.numSets(), g.sets);

    // Twice as many distinct lines as ways: hits, misses and evictions.
    const std::uint64_t universe = 2ull * g.sets * g.assoc;
    const LineState kStates[] = {LineState::Valid, LineState::Dirty,
                                 LineState::Owned};
    Xoshiro256StarStar rng(g.sets);
    for (int op = 0; op < 60000; ++op) {
        const Addr line = rng.nextBounded(universe) * kLine;
        const LineState st = kStates[rng.nextBounded(3)];
        switch (rng.nextBounded(100)) {
          case 0:
            ASSERT_EQ(cache.invalidateForAcquire(op % 2 == 0),
                      ref.invalidateForAcquire(op % 2 == 0))
                << "op " << op;
            break;
          case 1:
            cache.cleanDirty();
            ref.cleanDirty();
            break;
          case 2:
          case 3:
            ASSERT_EQ(cache.collectLines(st), ref.collectLines(st))
                << "op " << op;
            break;
          default:
            if (rng.nextBounded(4) == 0) {
                cache.invalidate(line);
                ref.invalidate(line);
                break;
            }
            if (rng.nextBounded(2) == 0) {
                ASSERT_EQ(cache.lookup(line), ref.lookup(line))
                    << "op " << op;
            }
            LineState* mine = cache.find(line);
            ReferenceCache::Way* theirs = ref.find(line);
            ASSERT_EQ(mine != nullptr, theirs != nullptr) << "op " << op;
            if (mine) {
                ASSERT_EQ(*mine, theirs->state) << "op " << op;
                // Upgrade in place, as the controllers do.
                *mine = st;
                theirs->state = st;
            } else {
                const SetAssocCache::Eviction a = cache.insert(line, st);
                const SetAssocCache::Eviction b = ref.insert(line, st);
                ASSERT_EQ(a.state, b.state) << "op " << op;
                ASSERT_EQ(a.line, b.line) << "op " << op;
            }
        }
    }
    for (LineState st : kStates)
        EXPECT_EQ(cache.collectLines(st), ref.collectLines(st));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Geometry{32 * 1024, 8, 64},    // Table IV L1
                      Geometry{256 * 1024, 16, 256}, // one Table IV L2 bank
                      Geometry{48 * 1024, 8, 96}));  // non-power-of-two sets

} // namespace
} // namespace gga
