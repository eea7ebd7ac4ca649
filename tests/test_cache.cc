/**
 * @file
 * Unit and property tests for the set-associative cache tag model:
 * hit/miss behaviour, true-LRU replacement, dirty-eviction writebacks,
 * geometry sweeps, and the checkpoint of its valid ways.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ckpt/ckpt.hh"
#include "mem/cache.hh"

namespace occamy
{
namespace
{

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheConfig{512, 2, 64, 1, 64};
}

TEST(Cache, ColdMissThenHit)
{
    Cache c("t", smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1030, false).hit);   // Same line.
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    Cache c("t", smallCache());
    // Three lines mapping to the same set (set stride = 4 lines).
    const Addr a = 0 * 64, b = 4 * 64, d = 8 * 64;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);      // a is now MRU.
    c.access(d, false);      // Evicts b (LRU).
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    Cache c("t", smallCache());
    const Addr a = 0 * 64, b = 4 * 64, d = 8 * 64;
    c.access(a, true);       // Dirty.
    c.access(b, false);
    CacheAccessResult r = c.access(d, false);   // Evicts dirty a.
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimLine, a);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c("t", smallCache());
    c.access(0 * 64, false);
    c.access(4 * 64, false);
    CacheAccessResult r = c.access(8 * 64, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c("t", smallCache());
    c.access(0 * 64, false);     // Clean fill.
    c.access(0 * 64, true);      // Write hit -> dirty.
    c.access(4 * 64, false);
    CacheAccessResult r = c.access(8 * 64, false);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c("t", smallCache());
    c.access(0x0, true);
    c.access(0x100, false);
    c.flush();
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x100));
    // Flushed dirty lines are dropped, not written back.
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(Cache, ContainsDoesNotTouchState)
{
    Cache c("t", smallCache());
    c.access(0 * 64, false);
    c.access(4 * 64, false);
    // Probing 'a' must NOT refresh its LRU position.
    EXPECT_TRUE(c.contains(0 * 64));
    c.access(8 * 64, false);     // Should still evict a (LRU).
    EXPECT_FALSE(c.contains(0 * 64));
}

TEST(Cache, StatsRegistration)
{
    Cache c("vec", smallCache());
    c.access(0, false);
    c.access(0, false);
    stats::Group g("mem");
    c.regStats(g);
    EXPECT_DOUBLE_EQ(g.get("vec.hits"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("vec.misses"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("vec.miss_rate"), 0.5);
}

/** A checkpoint holding @p c alone, header and trailer included. */
std::string
saved(const Cache &c)
{
    std::ostringstream os(std::ios::binary);
    ckpt::Writer w(os);
    c.save(w);
    w.finish();
    return os.str();
}

void
restore(Cache &c, const std::string &bytes)
{
    std::istringstream is(bytes, std::ios::binary);
    ckpt::Reader r(is);
    c.load(r);
    r.finish();
}

/** Lines 0 (dirty) and 4 in set 0, line 1 in set 1. */
Cache
warmSmallCache()
{
    Cache c("t", smallCache());
    c.access(0 * 64, true);
    c.access(4 * 64, false);
    c.access(1 * 64, false);
    c.access(0 * 64, false);
    return c;
}

TEST(CacheCkpt, ValidWaysRestoreTheWholeTagArray)
{
    Cache a = warmSmallCache();
    const std::string bytes = saved(a);
    Cache b("t", smallCache());
    b.access(2 * 64, true);     // Stale contents the load must clear.
    restore(b, bytes);
    EXPECT_EQ(saved(b), bytes);
    EXPECT_FALSE(b.contains(2 * 64));

    // Both evict the same victims from here on: 4 (LRU, clean), then
    // 0 (dirty, written back).
    for (Addr line : {8u, 12u, 2u}) {
        const CacheAccessResult ra = a.access(line * 64, false);
        const CacheAccessResult rb = b.access(line * 64, false);
        EXPECT_EQ(ra.hit, rb.hit) << line;
        EXPECT_EQ(ra.writeback, rb.writeback) << line;
        EXPECT_EQ(ra.victimLine, rb.victimLine) << line;
    }
    EXPECT_EQ(saved(a), saved(b));
}

TEST(CacheCkpt, OnlyValidWaysAreSaved)
{
    // 3 of 8 ways valid: 21 bytes each (u32 index, u64 tag, dirty
    // byte, u64 LRU stamp) after the section header, clock, geometry
    // and count; three counters follow.
    const std::string bytes = saved(warmSmallCache());
    const std::size_t ways = bytes.find("cache.t") + 7 + 3 * 8;
    EXPECT_EQ(bytes.size(), ways + 3 * 21 + 3 * 8 + 8);
    EXPECT_EQ(saved(Cache("t", smallCache())).size(), ways + 3 * 8 + 8);
}

/** Restore @p bytes into a fresh small cache, expecting a ckpt::Error
 *  whose message holds @p needle. */
void
expectReject(const std::string &bytes, const std::string &needle)
{
    Cache c("t", smallCache());
    try {
        restore(c, bytes);
        FAIL() << "restore accepted a bad checkpoint (wanted: " << needle
               << ")";
    } catch (const ckpt::Error &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

TEST(CacheCkpt, CorruptWayListIsRejected)
{
    const std::string good = saved(warmSmallCache());
    const std::size_t count = good.find("cache.t") + 7 + 2 * 8;
    const std::size_t first = count + 8, second = first + 21;
    ASSERT_EQ(good[count], 3);
    ASSERT_EQ(good[first], 0);      // Set 0, way 0: line 0.
    ASSERT_EQ(good[second], 1);     // Set 0, way 1: line 4.

    std::string bad = good;
    bad[count] = 9;                 // More valid ways than ways.
    expectReject(bad, "valid way count");

    bad = good;
    bad[first] = 8;                 // Past the last way.
    expectReject(bad, "way index");

    bad = good;
    bad[second] = 0;                // Repeats the first index.
    expectReject(bad, "not increasing");

    bad = good;
    bad[first + 4] = 1;             // Tag of line 1 parked in set 0.
    expectReject(bad, "tag outside its set");
}

/** Geometry sweep: capacity and conflict behaviour must hold for any
 *  (size, assoc) combination. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHitsAfterWarmup)
{
    const auto [size_kb, assoc] = GetParam();
    CacheConfig cfg{size_kb * 1024ull, assoc, 64, 1, 64};
    Cache c("t", cfg);

    const unsigned lines = static_cast<unsigned>(cfg.sizeBytes / 64);
    // Touch exactly the capacity once (sequential lines fill every way
    // of every set under modulo indexing).
    for (unsigned i = 0; i < lines; ++i)
        c.access(static_cast<Addr>(i) * 64, false);
    EXPECT_EQ(c.misses(), lines);
    // Second pass: everything must hit.
    for (unsigned i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(static_cast<Addr>(i) * 64, false).hit);
}

TEST_P(CacheGeometry, StreamingNeverHitsOnFirstTouch)
{
    const auto [size_kb, assoc] = GetParam();
    CacheConfig cfg{size_kb * 1024ull, assoc, 64, 1, 64};
    Cache c("t", cfg);
    for (unsigned i = 0; i < 4096; ++i)
        EXPECT_FALSE(c.access(static_cast<Addr>(i) * 64, false).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(8u, 64u, 128u, 1024u),
                       ::testing::Values(1u, 2u, 8u, 16u)));

} // namespace
} // namespace occamy
