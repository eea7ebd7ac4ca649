#include "obs/export.hh"

#include <cstring>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"

namespace occamy::obs
{

namespace
{

/** Track id of an event: per-core events ride the core's track,
 *  machine-wide events get a synthetic track after the cores. */
unsigned
tidOf(const Event &e, unsigned ncores)
{
    if (e.core != kNoCore)
        return e.core;
    return categoryOf(e.kind) == kEvMem ? ncores + 1 : ncores;
}

} // namespace

void
writeChromeTrace(std::ostream &os, const TraceBuffer &buf,
                 const std::vector<MetricSnapshot> &snapshots)
{
    unsigned ncores = 0;
    for (const Event &e : buf.events)
        if (e.core != kNoCore && e.core + 1u > ncores)
            ncores = e.core + 1u;

    os << std::setprecision(12);
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
    };

    // Track names, so Perfetto shows "core0".."manager","dram".
    for (unsigned c = 0; c < ncores + 2; ++c) {
        sep();
        const std::string name =
            c < ncores ? "core" + std::to_string(c)
                       : (c == ncores ? "manager" : "dram");
        os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << c
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << name << "\"}}";
    }

    for (const Event &e : buf.events) {
        const unsigned tid = tidOf(e, ncores);
        const Cycle ts = e.cycle;
        switch (e.kind) {
          case EventKind::PhaseBegin:
          case EventKind::PhaseEnd:
            sep();
            os << "{\"ph\":\""
               << (e.kind == EventKind::PhaseBegin ? "B" : "E")
               << "\",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << ts
               << ",\"cat\":\"phase\",\"name\":\""
               << jsonEscape(buf.str(e.a)) << "\",\"args\":{\"phase_id\":"
               << e.b << "}}";
            break;

          case EventKind::VlApply:
            // Instant plus a counter track of allocated ExeBUs.
            sep();
            os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
               << ",\"ts\":" << ts
               << ",\"cat\":\"reconfig\",\"name\":\"vl_apply\","
                  "\"args\":{\"vl\":"
               << e.a << ",\"free_bus\":" << e.b << "}}";
            sep();
            os << "{\"ph\":\"C\",\"pid\":0,\"tid\":" << tid
               << ",\"ts\":" << ts << ",\"name\":\"core"
               << e.core << " VL\",\"args\":{\"exebus\":" << e.a << "}}";
            break;

          case EventKind::PartitionDecision:
            sep();
            os << "{\"ph\":\"C\",\"pid\":0,\"tid\":" << tid
               << ",\"ts\":" << ts << ",\"name\":\"core" << e.core
               << " decision\",\"args\":{\"exebus\":" << e.b << "}}";
            break;

          case EventKind::BatchDispatch:
            sep();
            os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
               << ",\"ts\":" << ts
               << ",\"cat\":\"sched\",\"name\":\"dispatch "
               << jsonEscape(buf.str(e.a)) << "\",\"args\":{\"queue_idx\":"
               << e.b << "}}";
            break;

          default: {
            sep();
            os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
               << ",\"ts\":" << ts << ",\"cat\":\"";
            const EventMask cat = categoryOf(e.kind);
            os << (cat == kEvPipeline
                       ? "pipeline"
                       : (cat == kEvPartition
                              ? "partition"
                              : (cat == kEvReconfig
                                     ? "reconfig"
                                     : (cat == kEvMem ? "mem"
                                                      : "sched"))));
            os << "\",\"name\":\"" << eventKindName(e.kind)
               << "\",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b
               << ",\"x\":" << e.x << ",\"y\":" << e.y << "}}";
            break;
          }
        }
    }

    // Metric snapshots as counter events on the manager track.
    for (const MetricSnapshot &snap : snapshots) {
        for (const auto &[name, value] : snap.values) {
            sep();
            os << "{\"ph\":\"C\",\"pid\":0,\"tid\":" << ncores
               << ",\"ts\":" << snap.cycle << ",\"name\":\""
               << jsonEscape(name) << "\",\"args\":{\"value\":" << value
               << "}}";
        }
    }
    os << "]}";
}

namespace
{

constexpr char kMagic[8] = {'O', 'C', 'C', 'A', 'M', 'Y', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
put(std::ostream &os, T v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof v);
}

template <typename T>
T
get(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof v);
    if (!is)
        throw std::runtime_error("truncated binary trace");
    return v;
}

} // namespace

void
writeBinaryTrace(std::ostream &os, const TraceBuffer &buf)
{
    os.write(kMagic, sizeof kMagic);
    put<std::uint32_t>(os, kVersion);
    put<std::uint32_t>(os, 0);      // Reserved.
    put<std::uint64_t>(os, buf.dropped);

    put<std::uint64_t>(os, buf.strings.size());
    for (const std::string &s : buf.strings) {
        put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
        os.write(s.data(), static_cast<std::streamsize>(s.size()));
    }

    put<std::uint64_t>(os, buf.events.size());
    for (const Event &e : buf.events) {
        put<std::uint64_t>(os, e.cycle);
        put<std::uint32_t>(os, static_cast<std::uint32_t>(e.kind));
        put<std::uint32_t>(os, e.core);
        put<std::uint64_t>(os, e.a);
        put<std::uint64_t>(os, e.b);
        put<double>(os, e.x);
        put<double>(os, e.y);
    }
}

TraceBuffer
readBinaryTrace(std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof magic);
    if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        throw std::runtime_error("not an Occamy binary trace");
    const auto version = get<std::uint32_t>(is);
    if (version != kVersion)
        throw std::runtime_error("unsupported binary trace version " +
                                 std::to_string(version));
    get<std::uint32_t>(is);     // Reserved.

    TraceBuffer buf;
    buf.dropped = get<std::uint64_t>(is);

    const auto nstrings = get<std::uint64_t>(is);
    buf.strings.reserve(static_cast<std::size_t>(nstrings));
    for (std::uint64_t i = 0; i < nstrings; ++i) {
        const auto len = get<std::uint32_t>(is);
        std::string s(len, '\0');
        is.read(s.data(), len);
        if (!is)
            throw std::runtime_error("truncated binary trace");
        buf.strings.push_back(std::move(s));
    }

    const auto nevents = get<std::uint64_t>(is);
    buf.events.reserve(static_cast<std::size_t>(nevents));
    for (std::uint64_t i = 0; i < nevents; ++i) {
        Event e;
        e.cycle = get<std::uint64_t>(is);
        e.kind = static_cast<EventKind>(get<std::uint32_t>(is));
        e.core = static_cast<CoreId>(get<std::uint32_t>(is));
        e.a = get<std::uint64_t>(is);
        e.b = get<std::uint64_t>(is);
        e.x = get<double>(is);
        e.y = get<double>(is);
        buf.events.push_back(e);
    }
    return buf;
}

void
writeSnapshotsCsv(std::ostream &os,
                  const std::vector<MetricSnapshot> &snapshots)
{
    os << "cycle,stat,value\n";
    for (const MetricSnapshot &snap : snapshots)
        for (const auto &[name, value] : snap.values)
            os << snap.cycle << "," << name << "," << value << "\n";
}

} // namespace occamy::obs
