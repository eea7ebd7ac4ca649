#include "sim/trace.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json.hh"

namespace occamy::trace
{

namespace
{

/** RFC-4180 CSV field: quoted iff it contains a comma, quote, or
 *  newline, with embedded quotes doubled. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
writeTimelinesCsv(std::ostream &os, const RunResult &r)
{
    os << "bucket";
    for (std::size_t c = 0; c < r.cores.size(); ++c)
        os << ",core" << c << "_busy,core" << c << "_alloc";
    os << "\n";

    std::size_t buckets = 0;
    for (const auto &core : r.cores)
        buckets = std::max(buckets, core.busyLanesTimeline.size());

    for (std::size_t b = 0; b < buckets; ++b) {
        os << b;
        for (const auto &core : r.cores) {
            const double busy = b < core.busyLanesTimeline.size()
                                    ? core.busyLanesTimeline[b]
                                    : 0.0;
            const double alloc = b < core.allocLanesTimeline.size()
                                     ? core.allocLanesTimeline[b]
                                     : 0.0;
            os << "," << busy << "," << alloc;
        }
        os << "\n";
    }
}

void
writePhasesCsv(std::ostream &os, const RunResult &r)
{
    os << "core,phase,start,end,compute_insts,issue_rate,first_vl,"
          "last_vl\n";
    for (std::size_t c = 0; c < r.cores.size(); ++c)
        for (const auto &ph : r.cores[c].phases)
            os << c << "," << csvField(ph.name) << "," << ph.start << ","
               << ph.end << "," << ph.computeIssued << ","
               << ph.issueRate << "," << ph.firstVl << "," << ph.lastVl
               << "\n";
}

void
writeBatchCsv(std::ostream &os, const RunResult &r)
{
    os << "workload,core,dispatched,finished\n";
    for (const auto &b : r.batch)
        os << csvField(b.name) << "," << b.core << "," << b.dispatched
           << "," << b.finished << "\n";
}

namespace
{

void
jsonCore(std::ostream &os, const CoreRunResult &core)
{
    os << "{\"workload\":\"" << jsonEscape(core.workload) << "\""
       << ",\"finish\":" << core.finish
       << ",\"compute_issued\":" << core.computeIssued
       << ",\"mem_issued\":" << core.memIssued
       << ",\"rename_reg_stall_cycles\":" << core.renameRegStallCycles
       << ",\"monitor_insts\":" << core.monitorInsts
       << ",\"reconfig_wait_cycles\":" << core.reconfigWaitCycles
       << ",\"reconfig_events\":" << core.reconfigEvents
       << ",\"phases\":[";
    for (std::size_t i = 0; i < core.phases.size(); ++i) {
        const auto &ph = core.phases[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(ph.name)
           << "\""
           << ",\"start\":" << ph.start << ",\"end\":" << ph.end
           << ",\"issue_rate\":" << ph.issueRate
           << ",\"first_vl\":" << ph.firstVl
           << ",\"last_vl\":" << ph.lastVl << "}";
    }
    os << "]}";
}

} // namespace

std::string
toJson(const RunResult &r)
{
    std::ostringstream os;
    os << std::setprecision(10);
    os << "{\"cycles\":" << r.cycles
       << ",\"simd_util\":" << r.simdUtil
       << ",\"dram_bytes\":" << r.dramBytes
       << ",\"vl_switches\":" << r.vlSwitches
       << ",\"plans_made\":" << r.plansMade
       << ",\"timed_out\":" << (r.timedOut ? "true" : "false")
       << ",\"cores\":[";
    for (std::size_t c = 0; c < r.cores.size(); ++c) {
        if (c)
            os << ",";
        jsonCore(os, r.cores[c]);
    }
    os << "],\"batch\":[";
    for (std::size_t i = 0; i < r.batch.size(); ++i) {
        const auto &b = r.batch[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(b.name)
           << "\",\"core\":" << b.core
           << ",\"dispatched\":" << b.dispatched
           << ",\"finished\":" << b.finished << "}";
    }
    os << "]";
    // Per-cluster block: present only for clustered topologies, so
    // flat-machine JSON (golden traces included) is byte-identical.
    if (!r.clusters.empty()) {
        os << ",\"arbiter_rebalances\":" << r.arbiterRebalances
           << ",\"clusters\":[";
        for (std::size_t k = 0; k < r.clusters.size(); ++k) {
            const ClusterRunResult &cl = r.clusters[k];
            os << (k ? "," : "") << "{\"cluster\":" << cl.cluster
               << ",\"dram_bytes\":" << cl.dramBytes
               << ",\"vl_switches\":" << cl.vlSwitches
               << ",\"plans_made\":" << cl.plansMade
               << ",\"dram_share_bpc\":" << cl.dramShareBpc
               << ",\"avg_dram_share_bpc\":" << cl.avgDramShareBpc
               << ",\"migrated_in\":" << cl.migratedIn
               << ",\"migrated_out\":" << cl.migratedOut << "}";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

} // namespace occamy::trace
