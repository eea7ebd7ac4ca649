/**
 * @file
 * Unit and property tests for the set-associative cache tag model:
 * hit/miss behaviour, true-LRU replacement, dirty-eviction writebacks,
 * geometry sweeps, the checkpoint of its valid ways, and the host
 * memory its storage costs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "ckpt/ckpt.hh"
#include "host_memory.hh"
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

TEST(Cache, GeometryMustIndexByShiftAndMask)
{
    // Three sets of 2 x 64 B, 48 B lines, no ways, no sets.
    for (const CacheConfig &bad :
         {CacheConfig{384, 2, 64, 1, 64}, CacheConfig{768, 2, 48, 1, 64},
          CacheConfig{512, 0, 64, 1, 64}, CacheConfig{0, 2, 64, 1, 64}})
        EXPECT_THROW(Cache("t", bad), std::invalid_argument)
            << bad.sizeBytes << " B, " << bad.assoc << " x "
            << bad.lineBytes << " B";
    // The associativity need not be a power of two.
    EXPECT_NO_THROW(Cache("t", CacheConfig{4 * 3 * 64, 3, 64, 1, 64}));
    static_assert(!std::is_copy_constructible_v<Cache>,
                  "a copy would unmap the tag array twice");
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

TEST(CacheCkpt, TagBeyondThePackedFormIsRejected)
{
    // A tag word holds line + 1 below its dirty bit; a larger tag
    // cannot be stored and must not load as an invalid way.
    std::string bad = saved(warmSmallCache());
    const std::size_t tag = bad.find("cache.t") + 7 + 3 * 8 + 4;
    ASSERT_EQ(bad[tag], 0);         // Set 0, way 0: line 0.
    for (std::size_t b = 0; b < 8; ++b)
        bad[tag + b] = static_cast<char>(0xFC);
    expectReject(bad, "tag does not fit");
}

/** The paper's 8 MB, 16-way L2 (Table 4): 8192 sets. */
CacheConfig
tableFourL2()
{
    return CacheConfig{8ull << 20, 16, 64, 18, 64};
}

TEST(CacheMemory, UntouchedSetsCostNoHostMemory)
{
    // The tag arrays (2 MB here) are demand-zero pages: only the sets
    // that lines land in become resident.
    const double before = test::residentAnonMb();
    Cache c("l2", tableFourL2());
    for (Addr line = 0; line < 64; ++line)
        c.access(line * 64, line % 2 == 0);
    EXPECT_EQ(c.misses(), 64u);
    EXPECT_LT(test::residentAnonMb() - before, 1.0);
}

TEST(CacheMemory, FlushHandsThePagesBack)
{
    Cache c("l2", tableFourL2());
    const double before = test::residentAnonMb();
    for (Addr line = 0; line < 8192 * 16; ++line)
        c.access(line * 64, true);
    EXPECT_GT(test::residentAnonMb() - before, 1.5);
    c.flush();
    EXPECT_LT(test::residentAnonMb() - before, 0.5);
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.access(64, false).hit);
}

TEST(CacheCkpt, SparseRestoreRestoresEveryValidWayAndTouchesOnlyThem)
{
    // One line every 256 sets (32 KB of tags apart), a third dirty.
    auto line = [](Addr k) { return (k * 8192 + k * 256) * 64; };
    Cache a("l2", tableFourL2());
    for (Addr k = 0; k < 32; ++k)
        a.access(line(k), k % 3 == 0);
    const std::string bytes = saved(a);

    const double before = test::residentAnonMb();
    Cache b("l2", tableFourL2());
    b.access(5 * 64, true);         // Stale lines the restore must drop.
    b.access(8191 * 64, false);
    restore(b, bytes);
    EXPECT_LT(test::residentAnonMb() - before, 1.0);
    EXPECT_EQ(saved(b), bytes);
    for (Addr k = 0; k < 32; ++k)
        EXPECT_TRUE(b.contains(line(k))) << k;
    EXPECT_FALSE(b.contains(5 * 64));
    EXPECT_FALSE(b.contains(8191 * 64));
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
