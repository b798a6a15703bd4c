/**
 * @file
 * Unit tests for the support layer: RNG determinism and distributions,
 * statistics helpers, table rendering, inline function/vector, and the
 * hot-path containers (FlatMap, ObjectPool, RingBuffer), and the strict
 * unsigned parser.
 */

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "support/flat_map.hpp"
#include "support/inline_function.hpp"
#include "support/inline_vec.hpp"
#include "support/object_pool.hpp"
#include "support/parse_int.hpp"
#include "support/ring_buffer.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gga {
namespace {

TEST(SplitMix64, DeterministicAndDistinct)
{
    SplitMix64 a(42), b(42), c(43);
    const auto a1 = a.next();
    EXPECT_EQ(a1, b.next());
    EXPECT_NE(a1, c.next());
    EXPECT_NE(a.next(), a1);
}

TEST(HashMix, AvalanchesAndIsStable)
{
    EXPECT_EQ(hashMix64(1234), hashMix64(1234));
    EXPECT_NE(hashMix64(1), hashMix64(2));
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Xoshiro, BoundedStaysInBounds)
{
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Xoshiro, DoubleInUnitInterval)
{
    Xoshiro256StarStar rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xoshiro, GaussianMoments)
{
    Xoshiro256StarStar rng(11);
    std::vector<double> samples(20000);
    for (auto& s : samples)
        s = rng.nextGaussian();
    const Summary sum = summarize(samples);
    EXPECT_NEAR(sum.mean, 0.0, 0.05);
    EXPECT_NEAR(sum.stddev, 1.0, 0.05);
}

TEST(SplitRng, CounterIsRandomAccess)
{
    // Draw i of stream (s, t) must equal draw 0 of the same stream
    // started at counter i: that is what lets parallel phases jump to
    // any position without replaying the prefix.
    SplitRng seq(42, 7);
    std::vector<std::uint64_t> draws(32);
    for (auto& d : draws)
        d = seq.next();
    for (std::uint64_t i = 0; i < draws.size(); ++i) {
        SplitRng jump(42, 7, i);
        EXPECT_EQ(jump.next(), draws[i]) << "counter " << i;
    }
}

TEST(SplitRng, StreamsAreIndependentAndReproducible)
{
    SplitRng a(42, 1);
    SplitRng a2(42, 1);
    SplitRng b(42, 2);
    SplitRng c(43, 1);
    bool differs_ab = false;
    bool differs_ac = false;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t va = a.next();
        EXPECT_EQ(va, a2.next());
        differs_ab |= va != b.next();
        differs_ac |= va != c.next();
    }
    EXPECT_TRUE(differs_ab);
    EXPECT_TRUE(differs_ac);
}

TEST(SplitRng, BoundedAndDoubleRanges)
{
    SplitRng rng(7, 0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(SplitRng, GaussianMoments)
{
    SplitRng rng(11, 3);
    std::vector<double> samples(20000);
    for (auto& s : samples)
        s = rng.nextGaussian();
    const Summary sum = summarize(samples);
    EXPECT_NEAR(sum.mean, 0.0, 0.05);
    EXPECT_NEAR(sum.stddev, 1.0, 0.05);
}

TEST(Stats, SummaryBasics)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_NEAR(s.stddev, 1.118, 1e-3);
}

TEST(Stats, SummaryEmpty)
{
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Geomean)
{
    const std::vector<double> v{1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(v), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
}

TEST(Stats, Percentile)
{
    const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(TextTable, AlignedTextAndCsv)
{
    TextTable t;
    t.setHeader({"a", "bee"});
    t.addRow({"1", "2"});
    t.addRow({"333"});
    const std::string text = t.toText();
    EXPECT_NE(text.find("a    bee"), std::string::npos);
    EXPECT_NE(text.find("333"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("a,bee\n"), std::string::npos);
    EXPECT_NE(csv.find("1,2\n"), std::string::npos);
}

TEST(TextTable, CsvEscaping)
{
    TextTable t;
    t.setHeader({"x"});
    t.addRow({"has,comma"});
    t.addRow({"has\"quote"});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(FmtHelpers, Format)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPct(0.5), "50.0%");
}

TEST(InlineFunction, CallsAndMoves)
{
    int x = 0;
    InlineFunction<void()> f([&x] { ++x; });
    f();
    EXPECT_EQ(x, 1);
    InlineFunction<void()> g = std::move(f);
    g();
    EXPECT_EQ(x, 2);
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(static_cast<bool>(g));
}

TEST(InlineFunction, ReturnsValues)
{
    InlineFunction<int(int)> f([](int v) { return v * 2; });
    EXPECT_EQ(f(21), 42);
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    m[7] = 70;
    m[8] = 80;
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_EQ(m.find(9), nullptr);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_EQ(m.size(), 1u);
    m[7] = 71; // re-inserts into the slot the erase emptied
    EXPECT_EQ(*m.find(7), 71);
}

TEST(FlatMap, MatchesUnorderedMapUnderChurn)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Xoshiro256StarStar rng(99);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.nextBounded(512) * 64;
        switch (rng.nextBounded(3)) {
          case 0:
            m[key] = key + 1;
            ref[key] = key + 1;
            break;
          case 1:
            EXPECT_EQ(m.erase(key), ref.erase(key) != 0);
            break;
          default: {
            const auto it = ref.find(key);
            const std::uint64_t* v = m.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
        }
    }
    EXPECT_EQ(m.size(), ref.size());
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(64), nullptr);
}

/**
 * Homes every key in one of four slots — three at the end of the table
 * and one at its start — so probe runs are long and wrap around the end,
 * which is where backward-shift deletion has to get the cyclic distance
 * right.
 */
struct WrappingClusterHash
{
    std::size_t
    operator()(std::uint64_t k) const
    {
        return k % 4 == 0 ? 0 : ~std::size_t{0} - k % 3;
    }
};

TEST(FlatMap, MatchesUnorderedMapUnderWrappingCollisions)
{
    FlatMap<std::uint64_t, std::uint64_t, WrappingClusterHash> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Xoshiro256StarStar rng(7);
    constexpr std::uint64_t kKeys = 40;
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t key = rng.nextBounded(kKeys);
        if (rng.nextBounded(2) == 0) {
            m[key] = i;
            ref[key] = i;
        } else {
            ASSERT_EQ(m.erase(key), ref.erase(key) != 0) << "op " << i;
        }
        if (i % 97 == 0) {
            ASSERT_EQ(m.size(), ref.size());
            for (std::uint64_t k = 0; k < kKeys; ++k) {
                const auto it = ref.find(k);
                const std::uint64_t* v = m.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << k;
                if (v) {
                    ASSERT_EQ(*v, it->second) << "key " << k;
                }
            }
        }
    }
}

TEST(FlatMap, BoundedLiveSetNeverGrows)
{
    // Tombstone deletion grew or compacted a table whose live size stayed
    // put; backward shift must leave the capacity where it started.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::vector<std::uint64_t> live;
    for (std::uint64_t k = 0; k < 128; ++k) {
        m[k * 64] = k;
        live.push_back(k * 64);
    }
    const std::size_t cap = m.capacity();
    ASSERT_GT(cap, 0u);
    Xoshiro256StarStar rng(3);
    std::uint64_t next = 128;
    for (int i = 0; i < 1000000; ++i) {
        const std::size_t victim = rng.nextBounded(live.size());
        ASSERT_TRUE(m.erase(live[victim]));
        live[victim] = next * 64;
        m[next * 64] = next;
        ++next;
    }
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.size(), live.size());
    for (std::uint64_t k : live)
        ASSERT_NE(m.find(k), nullptr);
}

TEST(FlatMap, ClearHandsEveryEntryToTheReleaseCallback)
{
    FlatMap<std::uint32_t, std::unique_ptr<int>> m;
    for (int k = 0; k < 50; ++k)
        m[static_cast<std::uint32_t>(k)] = std::make_unique<int>(k);
    int sum = 0;
    std::size_t seen = 0;
    m.clear([&](std::uint32_t key, std::unique_ptr<int>& v) {
        EXPECT_EQ(static_cast<std::uint32_t>(*v), key);
        sum += *v;
        ++seen;
    });
    EXPECT_EQ(seen, 50u);
    EXPECT_EQ(sum, 49 * 50 / 2);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(3), nullptr);
}

TEST(FlatMap, HoldsMoveOnlyValues)
{
    FlatMap<std::uint32_t, std::unique_ptr<int>> m;
    m[3] = std::make_unique<int>(33);
    ASSERT_NE(m.find(3), nullptr);
    EXPECT_EQ(**m.find(3), 33);
    EXPECT_TRUE(m.erase(3));
}

TEST(ObjectPool, RecyclesStorage)
{
    struct Rec
    {
        int a;
        int b;
    };
    ObjectPool<Rec> pool;
    Rec* x = pool.create(Rec{1, 2});
    EXPECT_EQ(x->a, 1);
    pool.destroy(x);
    EXPECT_EQ(pool.live(), 0u);
    Rec* y = pool.create(Rec{3, 4});
    EXPECT_EQ(y, x); // LIFO recycling hands back the same block
    // Exhaust well past one chunk.
    std::vector<Rec*> live;
    for (int i = 0; i < 500; ++i)
        live.push_back(pool.create(Rec{i, i}));
    EXPECT_EQ(pool.live(), 501u);
    for (Rec* r : live)
        pool.destroy(r);
    pool.destroy(y);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(RingBuffer, FifoAcrossGrowth)
{
    RingBuffer<int> rb;
    EXPECT_TRUE(rb.empty());
    // Interleave pushes and pops so head wraps before growth.
    for (int i = 0; i < 10; ++i)
        rb.push_back(i);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(rb.front(), i);
        rb.pop_front();
    }
    for (int i = 0; i < 100; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rb.take_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, MovesOutMoveOnlyElements)
{
    RingBuffer<InlineFunction<int()>> rb;
    rb.push_back([] { return 1; });
    rb.push_back([] { return 2; });
    auto f = rb.take_front();
    EXPECT_EQ(f(), 1);
    EXPECT_EQ(rb.take_front()(), 2);
}

TEST(InlineVec, PushUniqueAndOverflowGuards)
{
    InlineVec<int, 4> v;
    v.pushUnique(1);
    v.pushUnique(2);
    v.pushUnique(1);
    EXPECT_EQ(v.size(), 2u);
    EXPECT_TRUE(v.contains(2));
    EXPECT_FALSE(v.contains(3));
    v.clear();
    EXPECT_TRUE(v.empty());
}

TEST(ParseUnsigned, RejectsSignsSpacesTrailersAndOverflow)
{
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "-0"}) {
        SCOPED_TRACE(std::string("text '") + bad + "'");
        EXPECT_FALSE(parseUnsigned<std::uint64_t>(bad));
        EXPECT_FALSE(parseUnsigned<std::uint16_t>(bad));
    }
    // Range is the destination type's: a port of 65536 must not wrap to 0.
    EXPECT_FALSE(parseUnsigned<std::uint16_t>("65536"));
    EXPECT_FALSE(parseUnsigned<std::uint16_t>("70000"));
    EXPECT_FALSE(parseUnsigned<std::uint32_t>("4294967296"));
    EXPECT_FALSE(parseUnsigned<std::uint64_t>("18446744073709551616"));
}

TEST(ParseUnsigned, AcceptsEachTypesFullRange)
{
    EXPECT_EQ(parseUnsigned<std::uint16_t>("0"), 0u);
    EXPECT_EQ(parseUnsigned<std::uint16_t>("007"), 7u);
    EXPECT_EQ(parseUnsigned<std::uint16_t>("65535"),
              std::numeric_limits<std::uint16_t>::max());
    EXPECT_EQ(parseUnsigned<unsigned>("4294967295"),
              std::numeric_limits<unsigned>::max());
    EXPECT_EQ(parseUnsigned<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseUnsigned<std::size_t>("42"), 42u);
}

} // namespace
} // namespace gga
