/**
 * @file
 * Tests for the deterministic fault-injection layer: trigger grammar
 * (N, N+, N/M), strict spec parsing, counter-based firing sequences,
 * seeded corruption determinism, and the /stats counters.
 */

#include <string>

#include <gtest/gtest.h>

#include "support/faults.hpp"
#include "support/json.hpp"

namespace gga {
namespace {

/** RAII disarm so one test's plan never leaks into the next. */
struct FaultGuard
{
    FaultGuard() { faults::configure(""); }
    ~FaultGuard() { faults::configure(""); }
};

TEST(Faults, DisarmedSitesNeverFire)
{
    FaultGuard guard;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(faults::fire("some.site"));
    EXPECT_EQ(faults::injectedTotal(), 0u);
    EXPECT_FALSE(faults::statsJson().at("enabled").asBool());
}

TEST(Faults, NthHitTriggerFiresExactlyOnce)
{
    FaultGuard guard;
    faults::configure("a=3");
    EXPECT_FALSE(faults::fire("a"));
    EXPECT_FALSE(faults::fire("a"));
    EXPECT_TRUE(faults::fire("a"));
    EXPECT_FALSE(faults::fire("a"));
    EXPECT_FALSE(faults::fire("a"));
    // Unlisted sites stay inert even while the plan is armed.
    EXPECT_FALSE(faults::fire("b"));
    EXPECT_EQ(faults::injectedTotal(), 1u);
}

TEST(Faults, OpenEndedTriggerFiresFromNOnward)
{
    FaultGuard guard;
    faults::configure("a=2+");
    EXPECT_FALSE(faults::fire("a"));
    EXPECT_TRUE(faults::fire("a"));
    EXPECT_TRUE(faults::fire("a"));
    EXPECT_TRUE(faults::fire("a"));
    EXPECT_EQ(faults::injectedTotal(), 3u);
}

TEST(Faults, PeriodicTriggerFiresEveryMth)
{
    FaultGuard guard;
    faults::configure("a=2/3");
    // Hits: 1 2 3 4 5 6 7 8 -> fires on 2, 5, 8.
    const bool expected[] = {false, true,  false, false,
                             true,  false, false, true};
    for (const bool want : expected)
        EXPECT_EQ(faults::fire("a"), want);
}

TEST(Faults, ConfigureResetsCountersAndSeparatesSites)
{
    FaultGuard guard;
    faults::configure("a=1,b=2");
    EXPECT_TRUE(faults::fire("a"));
    EXPECT_FALSE(faults::fire("b"));
    EXPECT_TRUE(faults::fire("b"));
    // Re-arming the same spec restarts every counter from zero.
    faults::configure("a=1,b=2");
    EXPECT_EQ(faults::injectedTotal(), 0u);
    EXPECT_TRUE(faults::fire("a"));
}

TEST(Faults, MalformedSpecsThrow)
{
    FaultGuard guard;
    EXPECT_THROW(faults::configure("a"), std::invalid_argument);
    EXPECT_THROW(faults::configure("a="), std::invalid_argument);
    EXPECT_THROW(faults::configure("a=0"), std::invalid_argument);
    EXPECT_THROW(faults::configure("a=x"), std::invalid_argument);
    EXPECT_THROW(faults::configure("a=1/0"), std::invalid_argument);
    EXPECT_THROW(faults::configure("a=1,a=2"), std::invalid_argument);
    EXPECT_THROW(faults::configure("=3"), std::invalid_argument);
    EXPECT_THROW(faults::configure("seed="), std::invalid_argument);
    // Counts are strict: no sign, no space, no 64-bit wrap-around.
    EXPECT_THROW(faults::configure("a=+1"), std::invalid_argument);
    EXPECT_THROW(faults::configure("a= 1"), std::invalid_argument);
    EXPECT_THROW(faults::configure("a=1/+2"), std::invalid_argument);
    EXPECT_THROW(faults::configure("seed=18446744073709551616"),
                 std::invalid_argument);
    // A failed configure leaves the previous (empty) plan armed.
    EXPECT_FALSE(faults::fire("a"));
}

TEST(Faults, CorruptionIsSeededAndDeterministic)
{
    FaultGuard guard;
    const std::string original(64, 'x');

    faults::configure("seed=7,c=1");
    std::string first = original;
    EXPECT_TRUE(faults::corrupt("c", first));
    EXPECT_NE(first, original); // a byte actually flipped

    // Same seed, same counters -> the identical mutation.
    faults::configure("seed=7,c=1");
    std::string second = original;
    EXPECT_TRUE(faults::corrupt("c", second));
    EXPECT_EQ(first, second);

    // A different seed lands a different mutation.
    faults::configure("seed=8,c=1");
    std::string third = original;
    EXPECT_TRUE(faults::corrupt("c", third));
    EXPECT_NE(third, first);

    // Unfired hits leave the data alone.
    faults::configure("seed=7,c=2");
    std::string untouched = original;
    EXPECT_FALSE(faults::corrupt("c", untouched));
    EXPECT_EQ(untouched, original);
}

TEST(Faults, TruncateDropsTheTailHalf)
{
    FaultGuard guard;
    faults::configure("t=1");
    std::string data(10, 'y');
    EXPECT_TRUE(faults::truncate("t", data));
    EXPECT_EQ(data.size(), 5u);
}

TEST(Faults, StatsReportHitsAndInjectionsPerSite)
{
    FaultGuard guard;
    faults::configure("a=2+");
    faults::fire("a");
    faults::fire("a");
    faults::fire("a");
    const Json stats = faults::statsJson();
    EXPECT_TRUE(stats.at("enabled").asBool());
    EXPECT_EQ(stats.at("injected_total").asU64(), 2u);
    EXPECT_EQ(stats.at("by_site").at("a").at("hits").asU64(), 3u);
    EXPECT_EQ(stats.at("by_site").at("a").at("injected").asU64(), 2u);
}

} // namespace
} // namespace gga
