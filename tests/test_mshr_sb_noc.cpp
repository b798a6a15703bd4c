/**
 * @file
 * Unit tests for MSHRs (merging, conflicts, capacity), the store buffer,
 * the mesh NoC latency model, and the DRAM channel model.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/dram.hpp"
#include "sim/mshr.hpp"
#include "sim/noc.hpp"
#include "sim/params.hpp"
#include "sim/store_buffer.hpp"

namespace gga {
namespace {

TEST(Mshr, NewEntryThenMerge)
{
    MshrTable m(4);
    int calls = 0;
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&calls] { ++calls; }),
              MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&calls] { ++calls; }),
              MshrAdd::Merged);
    EXPECT_TRUE(m.isPending(64));
    EXPECT_EQ(m.complete(64), 2u);
    EXPECT_EQ(calls, 2);
    EXPECT_FALSE(m.isPending(64));
}

TEST(Mshr, OwnershipConflictsWithDataFill)
{
    MshrTable m(4);
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [] {}), MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(64, FillKind::Ownership, [] {}),
              MshrAdd::Conflict);
    // Data merges into an ownership fill, though.
    EXPECT_EQ(m.addWaiter(128, FillKind::Ownership, [] {}),
              MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(128, FillKind::Data, [] {}), MshrAdd::Merged);
}

TEST(Mshr, CapacityAndRetryOnFill)
{
    MshrTable m(1);
    EXPECT_FALSE(m.full());
    m.addWaiter(64, FillKind::Data, [] {});
    EXPECT_TRUE(m.full());
    int retried = 0;
    m.addRetryOnFill(64, [&retried] { ++retried; });
    EXPECT_EQ(m.complete(64), 2u);
    EXPECT_EQ(retried, 1);
    EXPECT_FALSE(m.full());
    // Retry attached to an absent line fires immediately.
    m.addRetryOnFill(999, [&retried] { ++retried; });
    EXPECT_EQ(retried, 2);
}

TEST(Mshr, WaitersRunInAttachOrderAcrossMergesAndRetries)
{
    MshrTable m(4);
    std::vector<int> order;
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&order] { order.push_back(1); }),
              MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&order] { order.push_back(2); }),
              MshrAdd::Merged);
    // A conflicting upgrade attaches nothing; its retry queues in order.
    EXPECT_EQ(m.addWaiter(64, FillKind::Ownership,
                          [&order] { order.push_back(-1); }),
              MshrAdd::Conflict);
    m.addRetryOnFill(64, [&order, &m] {
        order.push_back(3);
        // Re-missing on the line being completed opens a fresh entry.
        EXPECT_EQ(m.addWaiter(64, FillKind::Ownership,
                              [&order] { order.push_back(5); }),
                  MshrAdd::NewEntry);
    });
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&order] { order.push_back(4); }),
              MshrAdd::Merged);
    EXPECT_EQ(m.complete(64), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(m.isPending(64));
    EXPECT_EQ(m.complete(64), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(m.inFlight(), 0u);
    EXPECT_EQ(m.complete(64), 0u);
}

TEST(Mshr, DestroyedWithFillsInFlightReleasesEveryWaiter)
{
    // The waiters hold a shared_ptr each: if the table leaked or skipped
    // a node, the count would stay up (and the pool would assert).
    auto token = std::make_shared<int>(0);
    {
        MshrTable m(128);
        for (Addr line = 0; line < 128; ++line) {
            for (int w = 0; w < 3; ++w)
                m.addWaiter(line * 64, FillKind::Data, [token] { ++*token; });
        }
        m.addRetryOnFill(64, [token] { ++*token; });
        EXPECT_TRUE(m.full());
        EXPECT_EQ(m.complete(0), 3u);
        EXPECT_EQ(token.use_count(), 1 + 127 * 3 + 1);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 3); // dropped waiters never ran
}

TEST(StoreBufferTest, AcquireRelease)
{
    StoreBuffer sb(2);
    EXPECT_TRUE(sb.empty());
    sb.acquire();
    sb.acquire();
    EXPECT_TRUE(sb.full());
    EXPECT_EQ(sb.freeEntries(), 0u);
    sb.release();
    EXPECT_FALSE(sb.full());
    EXPECT_EQ(sb.inUse(), 1u);
}

TEST(Noc, HopDistancesOnMesh)
{
    SimParams p;
    MeshNoc noc(p);
    EXPECT_EQ(noc.hops(0, 0), 0u);
    EXPECT_EQ(noc.hops(0, 3), 3u);   // same row
    EXPECT_EQ(noc.hops(0, 12), 3u);  // same column
    EXPECT_EQ(noc.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(noc.hops(5, 10), 2u);
}

TEST(Noc, LatencyIsRouterPlusHops)
{
    SimParams p;
    MeshNoc noc(p);
    EXPECT_EQ(noc.latency(0, 0), p.nocRouterLatency);
    EXPECT_EQ(noc.latency(0, 15),
              p.nocRouterLatency + 6 * p.nocPerHopLatency);
}

TEST(DramTest, LatencyAndChannelOccupancy)
{
    SimParams p;
    Dram d(p);
    const Cycles t1 = d.access(0, 0, /*is_write=*/false);
    EXPECT_EQ(t1, p.dramLatency);
    // Same line (same channel) back-to-back queues behind the interval.
    const Cycles t2 = d.access(0, 0, /*is_write=*/false);
    EXPECT_EQ(t2, p.dramServiceInterval + p.dramLatency);
    EXPECT_EQ(d.reads(), 2u);
}

TEST(DramTest, WritesArePosted)
{
    SimParams p;
    Dram d(p);
    const Cycles t = d.access(10, 64, /*is_write=*/true);
    EXPECT_EQ(t, 10 + p.dramServiceInterval);
    EXPECT_EQ(d.writes(), 1u);
}

TEST(DramTest, ChannelsDrainWhenIdle)
{
    SimParams p;
    Dram d(p);
    d.access(0, 0, false);
    // Much later, the channel is free again: no residual queueing.
    const Cycles t = d.access(1000, 0, false);
    EXPECT_EQ(t, 1000 + p.dramLatency);
}

} // namespace
} // namespace gga
