/**
 * @file
 * Shared plumbing of the perfbench program: options, the result record
 * every workload fills, host-time helpers, the span recorder used by
 * traced runs, sample statistics and the deterministic digest.
 *
 * Every number perfbench reports is either host time (wall clock of
 * the machine running the simulator) or simulated time (cycles of the
 * modelled machine); metric names and units say which.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;      ///< Measured host time per run.
    bool trace = false;         ///< Per-layer pass instead of e2e.
    bool tiny = false;          ///< Smoke-test sizes.
    std::string workdir;        ///< Scratch files (checkpoints, spans).
    std::string commit = "unknown";
    unsigned nproc = 1;
};

/** What one workload run produced: metrics, checks and counts. */
struct Result
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failedChecks;
    std::string digest;         ///< sim_digest of the deterministic exports.
    /** Extra record fields (sample counts, spans file), printed with
     *  the host record. */
    std::map<std::string, std::string> notes;

    void set(const std::string &name, double v) { metrics[name] = v; }

    /** Record a correctness check; a false @p ok fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failedChecks.push_back(what);
    }
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/** Nearest-rank percentile (@p p in [0, 100]); 0 for an empty sample. */
double percentile(std::vector<double> v, double p);

double sum(const std::vector<double> &v);

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** Peak resident set (VmHWM) of process @p pid, MiB; 0 if unknown. */
double pidPeakRssMb(int pid);

/** Host CPU seconds (user + system, all threads) used so far by this
 *  process, or by process @p pid. */
double selfCpuSeconds();
double pidCpuSeconds(int pid);

// ---------------------------------------------------------------- digest

/** FNV-1a 64-bit running hash over deterministic exports. */
class Digest
{
  public:
    void add(const std::string &s);
    void add(std::uint64_t v) { add(std::to_string(v)); }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Hash of a finished run: its JSON export plus its traffic records. */
void addRun(Digest &d, const occamy::RunResult &r);

// ------------------------------------------------------- layer counters

/** Work counts of the modelled components, summed over runs. They come
 *  from RunResult and its stats dump: simulated events, not host time. */
struct LayerCounts
{
    double simdInsts = 0, emInsts = 0, renameStall = 0;
    double reconfigWait = 0, monitorInsts = 0;
    double dramBytes = 0;
    double vecHits = 0, vecMisses = 0, l2Hits = 0, l2Misses = 0;
    double plans = 0, vlSwitches = 0, rebalances = 0, migrations = 0;

    void add(const occamy::RunResult &r);
    /** Write the coproc/core/mem/lanemgr metrics into @p out. */
    void emit(Result &out) const;
};

// ---------------------------------------------------------------- spans

/**
 * One timed call into a layer. The layer is the name's prefix before
 * the first '.', e.g. "sim.advance" belongs to "sim". @c id ties the
 * spans of one job or request together.
 */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;            ///< Index in the same log, -1 = root.
    unsigned thread = 0;
    double t0 = 0, t1 = 0;      ///< Host seconds since the log epoch.
};

/**
 * Span log of one thread: spans nest through begin/end. Not thread
 * safe; give each worker thread its own log and merge at the end.
 */
class SpanLog
{
  public:
    SpanLog(Clock::time_point epoch, unsigned thread)
        : epoch_(epoch), thread_(thread)
    {
    }

    int begin(const std::string &name, std::uint64_t id);
    void end(int idx);
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point epoch_;
    unsigned thread_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: begin on construction, end on destruction. A null log
 *  records nothing. */
class Scope
{
  public:
    Scope(SpanLog *log, const std::string &name, std::uint64_t id = 0)
        : log_(log), idx_(log ? log->begin(name, id) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->end(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
    int idx_;
};

/** Host seconds covered by spans named @p name across @p logs. */
double spanSeconds(const std::vector<SpanLog> &logs,
                   const std::string &name);

/** Durations (seconds) of every span named @p name. */
std::vector<double> spanDurations(const std::vector<SpanLog> &logs,
                                  const std::string &name);

/**
 * Per-layer self time in ms: each span's duration minus the time its
 * child spans cover, summed by layer. Emits "<layer>.self_ms" for
 * every layer in @p layers (0 when it recorded no span).
 */
void emitSelfTimes(const std::vector<SpanLog> &logs,
                   const std::vector<std::string> &layers, Result &out);

/** Write every span as JSON to @p path; @return false on I/O error. */
bool writeSpans(const std::vector<SpanLog> &logs, const std::string &path);

// ------------------------------------------------------------ workloads

void runPairSweep(const Options &o, Result &r);
void runClusterTraffic(const Options &o, Result &r);
void runServeSession(const Options &o, Result &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
