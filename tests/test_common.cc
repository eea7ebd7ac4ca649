/**
 * @file
 * Unit tests for the common infrastructure: stats package, logging
 * registry and machine configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/cliopts.hh"
#include "common/cliopts_lists.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "runner/sweep.hh"

namespace occamy
{
namespace
{

TEST(Stats, CounterIncrements)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageMean)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(Stats, DistributionBucketsAndClamping)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(0.5);     // bucket 0
    d.sample(9.9);     // bucket 4
    d.sample(-3.0);    // clamps to bucket 0
    d.sample(42.0);    // clamps to bucket 4
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.buckets()[0], 2u);
    EXPECT_EQ(d.buckets()[4], 2u);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
}

TEST(Stats, GroupDumpAndGet)
{
    stats::Counter c;
    c += 7;
    stats::Average a;
    a.sample(4.0);
    stats::Group g("grp");
    g.addCounter("events", &c, "number of events");
    g.addAverage("occupancy", &a);
    g.addFormula("double_events", [&] { return 2.0 * c.value(); });

    EXPECT_DOUBLE_EQ(g.get("events"), 7.0);
    EXPECT_DOUBLE_EQ(g.get("occupancy"), 4.0);
    EXPECT_DOUBLE_EQ(g.get("double_events"), 14.0);
    EXPECT_THROW(g.get("missing"), std::out_of_range);

    std::ostringstream os;
    g.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("grp.events"), std::string::npos);
    EXPECT_NE(text.find("number of events"), std::string::npos);
}

TEST(Log, EnableDisableFlags)
{
    EXPECT_FALSE(Log::enabled("TestFlagX"));
    Log::enable("TestFlagX");
    EXPECT_TRUE(Log::enabled("TestFlagX"));
    EXPECT_FALSE(Log::enabled("TestFlagY"));
    Log::disable("TestFlagX");
    EXPECT_FALSE(Log::enabled("TestFlagX"));
}

TEST(Log, AllFlag)
{
    Log::enable("All");
    EXPECT_TRUE(Log::enabled("anything"));
    Log::disable("All");
    EXPECT_FALSE(Log::enabled("anything"));
}

TEST(Config, PolicyNames)
{
    EXPECT_STREQ(policyName(SharingPolicy::Private), "Private");
    EXPECT_STREQ(policyName(SharingPolicy::Temporal), "FTS");
    EXPECT_STREQ(policyName(SharingPolicy::StaticSpatial), "VLS");
    EXPECT_STREQ(policyName(SharingPolicy::Elastic), "Occamy");
    EXPECT_STREQ(policyName(SharingPolicy::StaticSpatialWC), "VLS-WC");
}

TEST(Config, BusShareDistributesRemainder)
{
    // 10 ExeBUs over 4 cores: the 2 remainder units go to the
    // lowest-numbered cores, and every ExeBU is accounted for.
    MachineConfig cfg = MachineConfig::Builder(SharingPolicy::Private)
                            .cores(4)
                            .exeBUs(10)
                            .build();
    EXPECT_EQ(cfg.busShare(0), 3u);
    EXPECT_EQ(cfg.busShare(1), 3u);
    EXPECT_EQ(cfg.busShare(2), 2u);
    EXPECT_EQ(cfg.busShare(3), 2u);
    unsigned total = 0;
    for (unsigned c = 0; c < cfg.numCores; ++c)
        total += cfg.busShare(c);
    EXPECT_EQ(total, cfg.numExeBUs);
}

TEST(Config, BuilderRejectsMalformedStaticPlan)
{
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::StaticSpatial)
                     .cores(2)
                     .staticPlan({4, 4, 4})
                     .build(),
                 std::invalid_argument);
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::StaticSpatial)
                     .cores(2)
                     .exeBUs(8)
                     .staticPlan({6, 6})
                     .build(),
                 std::invalid_argument);
    // A well-formed plan (sum within the machine width) passes.
    const MachineConfig ok =
        MachineConfig::Builder(SharingPolicy::StaticSpatial)
            .cores(2)
            .exeBUs(8)
            .staticPlan({5, 3})
            .build();
    EXPECT_EQ(ok.staticPlan.size(), 2u);
}

TEST(Config, TopologyHelpersOnClusteredMachine)
{
    const MachineConfig cfg =
        MachineConfig::Builder(SharingPolicy::Elastic)
            .topology(4, 4)
            .build();
    EXPECT_EQ(cfg.numClusters, 4u);
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.coresPerCluster(), 4u);
    // numExeBUs is per cluster (the Builder default is 4 per core).
    EXPECT_EQ(cfg.numExeBUs, 16u);
    EXPECT_EQ(cfg.totalLanes(), 4u * 16u * kLanesPerBu);
    EXPECT_EQ(cfg.clusterOf(0), 0u);
    EXPECT_EQ(cfg.clusterOf(5), 1u);
    EXPECT_EQ(cfg.clusterOf(15), 3u);
    EXPECT_EQ(cfg.localCore(5), 1u);
    // busShare is a per-cluster split: same local slot, same share.
    EXPECT_EQ(cfg.busShare(0), cfg.busShare(4));
    EXPECT_EQ(cfg.busShare(3), cfg.busShare(15));
}

TEST(Config, CoresIsAFlatTopologyAlias)
{
    const MachineConfig a =
        MachineConfig::Builder(SharingPolicy::Elastic).cores(4).build();
    const MachineConfig b = MachineConfig::Builder(SharingPolicy::Elastic)
                                .topology(1, 4)
                                .build();
    EXPECT_EQ(a.numClusters, 1u);
    EXPECT_EQ(b.numClusters, 1u);
    EXPECT_EQ(a.numCores, b.numCores);
    EXPECT_EQ(a.numExeBUs, b.numExeBUs);
    EXPECT_EQ(a.totalLanes(), b.totalLanes());
}

TEST(Config, BuilderRejectsBadTopologies)
{
    // Zero clusters / zero cores per cluster.
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::Elastic)
                     .topology(0, 2)
                     .build(),
                 std::invalid_argument);
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::Elastic)
                     .topology(2, 0)
                     .build(),
                 std::invalid_argument);
    // A cluster count the area model cannot price.
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::Elastic)
                     .topology(65, 1)
                     .build(),
                 std::invalid_argument);
    // Fewer per-cluster ExeBUs than cores breaks busShare().
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::Elastic)
                     .topology(2, 4)
                     .exeBUs(2)
                     .build(),
                 std::invalid_argument);
    // A clustered machine needs a non-zero rebalance period.
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::Elastic)
                     .topology(2, 2)
                     .interArbiterPeriod(0)
                     .build(),
                 std::invalid_argument);
    // Static plans are sized against the cluster, not the machine.
    EXPECT_THROW(MachineConfig::Builder(SharingPolicy::StaticSpatial)
                     .topology(2, 2)
                     .staticPlan({4, 4, 4, 4})
                     .build(),
                 std::invalid_argument);
    const MachineConfig ok =
        MachineConfig::Builder(SharingPolicy::StaticSpatial)
            .topology(2, 2)
            .staticPlan({4, 4})
            .build();
    EXPECT_EQ(ok.staticPlan.size(), ok.coresPerCluster());
}

TEST(Config, DefaultsMatchTable4)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.numCores, 2u);
    EXPECT_EQ(cfg.totalLanes(), 32u);
    EXPECT_EQ(cfg.numExeBUs, 8u);
    EXPECT_EQ(cfg.vregsPerBlk, 160u);
    EXPECT_EQ(cfg.pregsPerBlk, 64u);
    EXPECT_EQ(cfg.vecCache.sizeBytes, 128u * 1024u);
    EXPECT_EQ(cfg.vecCache.latency, 5u);
    EXPECT_EQ(cfg.l2.sizeBytes, 8u * 1024u * 1024u);
    EXPECT_EQ(cfg.l2.latency, 18u);
    EXPECT_EQ(cfg.dramBytesPerCycle, 32u);   // 64 GB/s at 2 GHz.
    EXPECT_DOUBLE_EQ(cfg.ghz, 2.0);
    EXPECT_EQ(cfg.computeIssueWidth + cfg.memIssueWidth, 4u);
}

TEST(Config, ForPolicyScalesWithCores)
{
    for (unsigned cores : {2u, 4u}) {
        MachineConfig cfg =
            MachineConfig::forPolicy(SharingPolicy::Elastic, cores);
        EXPECT_EQ(cfg.numCores, cores);
        EXPECT_EQ(cfg.numExeBUs, 4 * cores);
        EXPECT_EQ(cfg.busShare(0), 4u);
        EXPECT_EQ(cfg.busShare(cores - 1), 4u);
        EXPECT_EQ(cfg.totalLanes(), 16 * cores);
    }
}

TEST(Types, LaneArithmetic)
{
    EXPECT_EQ(kLanesPerBu, 4u);
    EXPECT_EQ(kBytesPerBu, 16u);
    static_assert(kBuBits == 128);
    static_assert(kLaneBits == 32);
}


TEST(CliOpts, IntegersRejectValuesBeyondTheirType)
{
    unsigned tenants = 7;
    std::uint64_t cycles = 9;
    cliopts::OptionSet set("t", "test");
    set.value("tenants", &tenants, "N", "h", 1)
        .value("max-cycles", &cycles, "N", "h");
    std::string err;
    // 2^32 used to narrow to 0 after passing the >= 1 check.
    EXPECT_FALSE(set.set("tenants", "4294967296", err));
    EXPECT_EQ(err, "--tenants wants an integer >= 1, got \"4294967296\"");
    EXPECT_EQ(tenants, 7u);
    EXPECT_TRUE(set.set("tenants", "4294967295", err));
    EXPECT_EQ(tenants, 4294967295u);
    // strtoull's ERANGE result is not ULLONG_MAX.
    EXPECT_FALSE(set.set("max_cycles", "18446744073709551616", err));
    EXPECT_EQ(cycles, 9u);
    EXPECT_TRUE(set.set("max_cycles", "18446744073709551615", err));
    EXPECT_EQ(cycles, 18446744073709551615u);
    for (const char *bad : {"-1", "", "1e6", "12x"})
        EXPECT_FALSE(set.set("tenants", bad, err)) << bad;

    const char *argv[] = {"t", "--tenants", "4294967296"};
    const cliopts::ParseResult pr =
        set.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(pr.status, cliopts::Status::Error);
    EXPECT_EQ(pr.error, "--tenants wants an integer >= 1, got "
                        "\"4294967296\"");
}

TEST(CliOpts, DoublesRejectNonFiniteValues)
{
    double rate = 3.0, any = 4.0;
    cliopts::OptionSet set("t", "test");
    set.value("traffic-rate", &rate, "G", "h", true)
        .value("scale", &any, "X", "h");
    std::string err;
    // NaN <= 0 is false, so NaN used to pass the positive check.
    for (const char *bad : {"nan", "NAN", "inf", "-inf", "1e999"}) {
        EXPECT_FALSE(set.set("traffic_rate", bad, err)) << bad;
        EXPECT_EQ(err, std::string("--traffic-rate wants a positive "
                                   "number, got \"") + bad + "\"");
        EXPECT_FALSE(set.set("scale", bad, err)) << bad;
    }
    EXPECT_EQ(rate, 3.0);
    EXPECT_EQ(any, 4.0);
    EXPECT_TRUE(set.set("traffic_rate", "2.5", err));
    EXPECT_EQ(rate, 2.5);
    EXPECT_FALSE(set.set("traffic_rate", "0", err));
    EXPECT_TRUE(set.set("scale", "-1.5", err));
}

TEST(CliOpts, TopologyAndCoresRejectOverflow)
{
    unsigned clusters = 2, cores = 2;
    std::string err;
    EXPECT_FALSE(
        cliopts::parseTopology("4294967297x4", clusters, cores, err));
    EXPECT_FALSE(cliopts::parseTopology("4x0", clusters, cores, err));
    EXPECT_TRUE(cliopts::parseTopology("4x8", clusters, cores, err));
    EXPECT_EQ(clusters, 4u);
    EXPECT_EQ(cores, 8u);

    cliopts::OptionSet set("t", "test");
    set.custom("cores", "N", "h", cliopts::flatCores(clusters, cores));
    EXPECT_FALSE(set.set("cores", "4294967296", err));
    EXPECT_EQ(err, "--cores wants a positive integer, got \"4294967296\"");
    EXPECT_FALSE(set.set("cores", "-3", err));
    EXPECT_FALSE(set.set("cores", "0", err));
    EXPECT_EQ(clusters, 4u);
    EXPECT_TRUE(set.set("cores", "3", err));
    EXPECT_EQ(clusters, 1u);
    EXPECT_EQ(cores, 3u);
}

TEST(CliOpts, SplitCommasDropsEmptyItems)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(cliopts::splitCommas(",WL8,,CV5,"), (V{"WL8", "CV5"}));
    EXPECT_EQ(cliopts::splitCommas(""), V{});
    EXPECT_EQ(cliopts::splitCommas("6+16"), V{"6+16"});
}

TEST(CliOpts, WorkloadIdsAreWholeNumbers)
{
    EXPECT_EQ(cliopts::lookupWorkload("WL8").name, "WL8");
    EXPECT_EQ(cliopts::lookupWorkload("CV5").name, "CV5");
    EXPECT_EQ(cliopts::lookupWorkload("16").name, "WL16");
    // Trailing junk, signs, blanks and overflow are not ids; they take
    // the unknown-id path instead of naming the numeric prefix.
    for (const char *bad : {"WL8x", "CV5junk", "6abc", "16xyz", "WL", "",
                            " 8", "WL+8", "CV-5", "WL4294967304"})
        EXPECT_THROW(cliopts::lookupWorkload(bad), std::out_of_range)
            << '"' << bad << '"';
}

TEST(CliOpts, PairHalvesAreWholeWorkloadIds)
{
    const auto [w6, w16] = cliopts::lookupPair("6+16");
    EXPECT_EQ(w6.name, "WL6");
    EXPECT_EQ(w16.name, "WL16");
    // --opencv reads bare ids as OpenCV workloads.
    const auto [cv6, cv3] = cliopts::lookupPair("6+3", true);
    EXPECT_EQ(cv6.name, "CV6");
    EXPECT_EQ(cv3.name, "CV3");
    // A half with trailing text is not the id it starts with.
    for (const char *bad : {"6abc+16", "6+16xyz", "6abc+16xyz", "+16"})
        EXPECT_THROW(cliopts::lookupPair(bad), std::out_of_range)
            << '"' << bad << '"';
    EXPECT_THROW(cliopts::lookupPair("CV6+3", true), std::out_of_range);
    EXPECT_THROW(cliopts::lookupPair("616"), std::invalid_argument);
}

TEST(CliOpts, RunKeysDocumentADefaultTheyAccept)
{
    runner::RunKeys keys;
    keys.tmpl.maxCycles = 7;
    cliopts::OptionSet set("t", "test");
    runner::addRunKeys(set, keys);
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    set.printHelp(f);
    std::rewind(f);
    std::string help;
    for (int c; (c = std::fgetc(f)) != EOF;)
        help.push_back(static_cast<char>(c));
    std::fclose(f);

    // The help line of --max-cycles names its default; feeding that
    // text back through set() gives the JobSpec default.
    const std::size_t line = help.find("--max-cycles");
    ASSERT_NE(line, std::string::npos);
    const std::size_t at = help.find("(default ", line);
    ASSERT_LT(at, help.find('\n', line));
    const std::size_t from = at + 9;
    const std::string dflt =
        help.substr(from, help.find(')', from) - from);
    std::string err;
    EXPECT_TRUE(set.set("max-cycles", dflt, err)) << err;
    EXPECT_EQ(keys.tmpl.maxCycles, runner::JobSpec{}.maxCycles);
}

TEST(CliOpts, RunKeysResolveCoresBeforeTopology)
{
    // occamy-serve applies a request's keys in sorted order, so
    // "cores" lands before "topology"; the topology wins, as it does
    // for the same two flags on a command line.
    runner::RunKeys keys;
    cliopts::OptionSet set("t", "test");
    runner::addRunKeys(set, keys);
    std::string err;
    ASSERT_TRUE(set.set("cores", "8", err));
    ASSERT_TRUE(set.set("topology", "2x2", err));
    EXPECT_EQ(keys.machine(SharingPolicy::Elastic).numClusters, 2u);
    EXPECT_EQ(keys.machine(SharingPolicy::Elastic).numCores, 4u);
    ASSERT_TRUE(set.set("cores", "3", err));
    const MachineConfig flat = keys.machine(SharingPolicy::Private);
    EXPECT_EQ(flat.numClusters, 1u);
    EXPECT_EQ(flat.numCores, 3u);
    EXPECT_EQ(flat.policy, SharingPolicy::Private);
}

} // namespace
} // namespace occamy
