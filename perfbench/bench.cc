#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

#include "sim/trace.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB -> MiB
}

double
pidPeakRssMb(int pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;   // kB -> MiB
    }
    return 0.0;
}

double
selfCpuSeconds()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
pidCpuSeconds(int pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(is, stat);
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    std::istringstream ss(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && ss >> field; ++i)
        if (i >= 14)
            ticks += std::atof(field.c_str());
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;     // Field separator: "ab"+"c" != "a"+"bc".
    h_ *= 0x100000001b3ULL;
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
addRun(Digest &d, const occamy::RunResult &r)
{
    d.add(occamy::trace::toJson(r));
    for (const occamy::traffic::JobRecord &j : r.trafficJobs) {
        d.add(j.tenant);
        d.add(j.arrive);
        d.add(j.admit);
        d.add(j.finish);
        d.add(j.shed ? 1 : 0);
        d.add(j.defers);
    }
}

// ------------------------------------------------------- layer counters

namespace
{

/** Sum every "name value" line of a stats dump whose name ends with
 *  @p suffix (per-cluster groups repeat the same suffix). */
double
statSum(const std::string &stats, const std::string &suffix)
{
    double total = 0.0;
    std::istringstream is(stats);
    std::string name;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        double v = 0.0;
        if (!(ls >> name >> v))
            continue;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += v;
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
LayerCounts::add(const occamy::RunResult &r)
{
    const std::string &s = r.statsText;
    simdInsts += statSum(s, ".compute_issued") + statSum(s, ".mem_issued");
    emInsts += statSum(s, ".em_insts");
    renameStall += statSum(s, ".rename_reg_stall_cycles");
    for (const occamy::CoreRunResult &c : r.cores) {
        reconfigWait += static_cast<double>(c.reconfigWaitCycles);
        monitorInsts += static_cast<double>(c.monitorInsts);
    }
    dramBytes += static_cast<double>(r.dramBytes);
    vecHits += statSum(s, ".vec_cache.hits");
    vecMisses += statSum(s, ".vec_cache.misses");
    l2Hits += statSum(s, ".l2.hits");
    l2Misses += statSum(s, ".l2.misses");
    plans += static_cast<double>(r.plansMade);
    vlSwitches += static_cast<double>(r.vlSwitches);
    rebalances += static_cast<double>(r.arbiterRebalances);
    for (const occamy::ClusterRunResult &c : r.clusters)
        migrations += static_cast<double>(c.migratedIn);
}

void
LayerCounts::emit(Result &out) const
{
    out.set("coproc.simd_insts", simdInsts);
    out.set("coproc.em_insts", emInsts);
    out.set("coproc.rename_stall_cycles", renameStall);
    out.set("core.reconfig_wait_cycles", reconfigWait);
    out.set("core.monitor_insts", monitorInsts);
    out.set("mem.dram_bytes", dramBytes);
    out.set("mem.vec_cache_hit_rate", ratio(vecHits, vecHits + vecMisses));
    out.set("mem.l2_hit_rate", ratio(l2Hits, l2Hits + l2Misses));
    out.set("lanemgr.plans", plans);
    out.set("lanemgr.vl_switches", vlSwitches);
    out.set("lanemgr.rebalances", rebalances);
    out.set("lanemgr.migrations", migrations);
}

// ---------------------------------------------------------------- spans

int
SpanLog::begin(const std::string &name, std::uint64_t id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.thread = thread_;
    s.t0 = since(epoch_);
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
SpanLog::end(int idx)
{
    spans_[static_cast<std::size_t>(idx)].t1 = since(epoch_);
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

double
spanSeconds(const std::vector<SpanLog> &logs, const std::string &name)
{
    return sum(spanDurations(logs, name));
}

std::vector<double>
spanDurations(const std::vector<SpanLog> &logs, const std::string &name)
{
    std::vector<double> out;
    for (const SpanLog &log : logs)
        for (const Span &s : log.spans())
            if (s.name == name)
                out.push_back(s.t1 - s.t0);
    return out;
}

void
emitSelfTimes(const std::vector<SpanLog> &logs,
              const std::vector<std::string> &layers, Result &out)
{
    std::map<std::string, double> self;
    for (const SpanLog &log : logs) {
        const std::vector<Span> &spans = log.spans();
        // Spans of one log come from one thread, so siblings never
        // overlap and the children's durations sum to what they cover.
        std::vector<double> childTime(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childTime[static_cast<std::size_t>(s.parent)] +=
                    s.t1 - s.t0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::string layer =
                spans[i].name.substr(0, spans[i].name.find('.'));
            self[layer] += spans[i].t1 - spans[i].t0 - childTime[i];
        }
    }
    for (const std::string &layer : layers)
        out.set(layer + ".self_ms", 1e3 * self[layer]);
}

bool
writeSpans(const std::vector<SpanLog> &logs, const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    os << "[";
    bool first = true;
    char buf[160];
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans()) {
            std::snprintf(buf, sizeof buf,
                          "\"id\":%llu,\"parent\":%d,\"thread\":%u,"
                          "\"start_us\":%.3f,\"end_us\":%.3f}",
                          static_cast<unsigned long long>(s.id), s.parent,
                          s.thread, 1e6 * s.t0, 1e6 * s.t1);
            os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
               << "\"," << buf;
            first = false;
        }
    }
    os << "\n]\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
