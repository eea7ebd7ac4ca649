/**
 * @file
 * Tests for the memory-system timing model: hit/miss latencies,
 * bandwidth occupancy, the stream prefetcher and its MSHR-style
 * line-readiness (which, like an MSHR file, holds only fills in
 * flight), store-buffer semantics, and DRAM-bandwidth bounds on
 * streaming access patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/memsystem.hh"

namespace occamy
{
namespace
{

MachineConfig
noPrefetchConfig()
{
    MachineConfig cfg;
    cfg.prefetchDegree = 0;
    return cfg;
}

TEST(MemSystem, VecCacheHitLatency)
{
    MemSystem mem(noPrefetchConfig());
    mem.access(0x1000, 64, false, 0);           // Cold fill.
    const MemAccessResult r = mem.access(0x1000, 64, false, 1000);
    EXPECT_EQ(r.dataReady, 1000u + MachineConfig{}.vecCache.latency);
}

TEST(MemSystem, ColdMissGoesToDram)
{
    MachineConfig cfg = noPrefetchConfig();
    MemSystem mem(cfg);
    const MemAccessResult r = mem.access(0x2000, 64, false, 0);
    // VecCache latency + L2 latency + DRAM latency + bandwidth terms.
    EXPECT_GE(r.dataReady, cfg.vecCache.latency + cfg.l2.latency +
                               cfg.dramLatency);
    EXPECT_EQ(mem.dramReads(), 1u);
}

TEST(MemSystem, L2HitAfterVecCacheEviction)
{
    MachineConfig cfg = noPrefetchConfig();
    MemSystem mem(cfg);
    // Fill well beyond VecCache (128 KB) but within L2 (8 MB).
    const unsigned lines = 8 * 1024;            // 512 KB.
    for (unsigned i = 0; i < lines; ++i)
        mem.access(static_cast<Addr>(i) * 64, 64, false, i * 10);
    // Line 0 must have been evicted from VecCache but still be in L2.
    const Cycle t0 = 100'000'000;
    const MemAccessResult r = mem.access(0, 64, false, t0);
    EXPECT_GE(r.dataReady, t0 + cfg.l2.latency);
    EXPECT_LT(r.dataReady, t0 + cfg.dramLatency);
}

TEST(MemSystem, StoreRetiresIntoStoreBuffer)
{
    MachineConfig cfg = noPrefetchConfig();
    MemSystem mem(cfg);
    const MemAccessResult r = mem.access(0x3000, 64, true, 0);
    // The store retires quickly...
    EXPECT_EQ(r.dataReady, cfg.vecCache.latency);
    // ...but the fetch-for-ownership holds the queue entry.
    EXPECT_GE(r.queueRelease, static_cast<Cycle>(cfg.dramLatency));
}

TEST(MemSystem, PrefetchedLineWaitsForItsFill)
{
    MachineConfig cfg;
    cfg.prefetchDegree = 8;
    MemSystem mem(cfg);
    // Demand miss on line 0 prefetches lines 1..8 into L2.
    mem.access(0, 64, false, 0);
    EXPECT_GT(mem.prefetches(), 0u);
    // An immediate access to line 1 hits L2 but must wait for the
    // in-flight fill (MSHR semantics), i.e. roughly a DRAM latency.
    const MemAccessResult r = mem.access(64, 64, false, 1);
    EXPECT_GE(r.dataReady, static_cast<Cycle>(cfg.dramLatency));
}

TEST(MemSystem, PrefetchedLineIsFreeOnceSettled)
{
    MachineConfig cfg;
    cfg.prefetchDegree = 8;
    MemSystem mem(cfg);
    mem.access(0, 64, false, 0);
    // Long after the fill completed, the prefetched line is an L2 hit.
    const Cycle t = 1'000'000;
    const MemAccessResult r = mem.access(64, 64, false, t);
    EXPECT_LE(r.dataReady, t + cfg.l2.latency + 10);
}

TEST(MemSystem, StreamingThroughputIsDramBandwidthBound)
{
    MachineConfig cfg;
    MemSystem mem(cfg);
    // Stream 1 MB: total time must be close to bytes / DRAM bandwidth
    // and, critically, cannot beat it.
    const std::uint64_t bytes = 1 << 20;
    Cycle now = 0;
    Cycle done = 0;
    for (Addr a = 0; a < bytes; a += 64) {
        const MemAccessResult r = mem.access(a, 64, false, now);
        done = std::max(done, r.dataReady);
        now += 1;
    }
    const Cycle floor = bytes / cfg.dramBytesPerCycle;
    EXPECT_GE(done, floor);
    EXPECT_LE(done, floor * 3 / 2);   // Within 50% of peak bandwidth.
}

TEST(MemSystem, FillStateStaysBounded)
{
    // Stream 64k distinct lines, each touched once, paced at half the
    // DRAM bandwidth: at any moment only about a DRAM latency's worth
    // of fills (plus the prefetch run-ahead) is in flight, however
    // many lines went by. Without the prefetcher every line is a
    // demand miss whose fill lands after its only access.
    for (const unsigned degree : {0u, MachineConfig{}.prefetchDegree}) {
        MachineConfig cfg;
        cfg.prefetchDegree = degree;
        MemSystem mem(cfg);
        const unsigned line = cfg.vecCache.lineBytes;
        const Cycle pace = 2 * line / cfg.dramBytesPerCycle;
        constexpr Addr kLines = 64 * 1024;
        std::size_t peak = 0;
        for (Addr l = 0; l < kLines; ++l) {
            mem.access(l * line, line, false, l * pace);
            peak = std::max(peak, mem.inflightFills());
        }
        EXPECT_GE(mem.dramReads() + mem.prefetches(), kLines);
        EXPECT_LE(peak, 2048u) << "prefetch degree " << degree;
    }
}

TEST(MemSystem, RefilledLineKeepsItsLaterFill)
{
    // Direct-mapped 4-set VecCache and L2 and a slow DRAM: line 4
    // evicts line 0 from both levels before line 0's fill lands, so
    // line 0's second miss issues a second, later fill.
    MachineConfig cfg = noPrefetchConfig();
    cfg.vecCache.sizeBytes = cfg.l2.sizeBytes = 4 * 64;
    cfg.vecCache.assoc = cfg.l2.assoc = 1;
    cfg.dramBytesPerCycle = 1;
    MemSystem mem(cfg);
    const Cycle first = mem.access(0, 64, false, 0).dataReady;
    mem.access(4 * 64, 64, false, 1);
    const Cycle second = mem.access(0, 64, false, 2).dataReady;
    ASSERT_GT(second, first + cfg.vecCache.latency);

    // The probe reports the first fill although the line moved on.
    EXPECT_EQ(mem.nextEventAt(2), first);
    // Once the first fill landed, line 0 still waits for the second.
    mem.access(64, 64, false, first);
    EXPECT_EQ(mem.access(0, 64, false, first + 1).dataReady, second);
}

TEST(MemSystem, WidthSplitsAcrossLines)
{
    MachineConfig cfg = noPrefetchConfig();
    MemSystem mem(cfg);
    // A 128 B access covers two lines; both must be resident after.
    mem.access(0x8000, 128, false, 0);
    EXPECT_TRUE(mem.vecCache().contains(0x8000));
    EXPECT_TRUE(mem.vecCache().contains(0x8040));
}

TEST(MemSystem, VecPortBandwidthSerializesWideAccesses)
{
    MachineConfig cfg = noPrefetchConfig();
    MemSystem mem(cfg);
    // Warm two distinct lines.
    mem.access(0x0, 64, false, 0);
    mem.access(0x40, 64, false, 0);
    // At t=1000, two simultaneous 128 B accesses occupy the 128 B/cycle
    // port back-to-back: the second completes at least one cycle later.
    const Cycle a = mem.access(0x0, 128, false, 1000).dataReady;
    const Cycle b = mem.access(0x0, 128, false, 1000).dataReady;
    EXPECT_GE(b, a + 1);
}

TEST(MemSystem, ResetClearsContents)
{
    MemSystem mem(noPrefetchConfig());
    mem.access(0x100, 64, false, 0);
    mem.reset();
    EXPECT_FALSE(mem.vecCache().contains(0x100));
    EXPECT_FALSE(mem.l2().contains(0x100));
}

TEST(MemSystem, ScalarAccessSharesHierarchy)
{
    MachineConfig cfg = noPrefetchConfig();
    MemSystem mem(cfg);
    mem.access(0x5000, 64, false, 0);
    // A scalar access to the same line hits.
    const Cycle t = mem.scalarAccess(0x5008, false, 1000);
    EXPECT_LE(t, 1000u + cfg.vecCache.latency);
}

/** DRAM-bandwidth property across access widths: the streaming time of
 *  a fixed byte volume is width-independent (bandwidth-bound). */
class MemWidthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MemWidthSweep, StreamTimeIndependentOfAccessWidth)
{
    const unsigned width = GetParam();
    MachineConfig cfg;
    MemSystem mem(cfg);
    const std::uint64_t bytes = 1 << 20;
    Cycle now = 0, done = 0;
    for (Addr a = 0; a < bytes; a += width) {
        const MemAccessResult r = mem.access(a, width, false, now);
        done = std::max(done, r.dataReady);
        // Pace requests at just above peak so bandwidth, not the
        // request rate, is the limiter.
        now += width / 64;
    }
    const Cycle floor = bytes / cfg.dramBytesPerCycle;
    EXPECT_GE(done, floor);
    EXPECT_LE(done, floor * 3 / 2) << "width=" << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, MemWidthSweep,
                         ::testing::Values(16u, 32u, 64u, 128u, 256u));

} // namespace
} // namespace occamy
