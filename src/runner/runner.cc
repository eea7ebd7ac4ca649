#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "fault/fault.hh"

namespace occamy::runner
{

const char *
jobStatusName(JobStatus s)
{
    return s == JobStatus::Ok ? "ok" : "failed";
}

std::size_t
SweepResult::failed() const
{
    std::size_t n = 0;
    for (const auto &j : jobs)
        if (!j.ok())
            ++n;
    return n;
}

std::size_t
SweepResult::timedOut() const
{
    std::size_t n = 0;
    for (const auto &j : jobs)
        if (j.result.timedOut)
            ++n;
    return n;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("OCCAMY_JOBS")) {
        const long n = std::atol(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::function<void(const Progress &)>
stderrProgress()
{
    return [](const Progress &p) {
        std::fprintf(stderr,
                     "\r[%zu/%zu] running=%zu failed=%zu "
                     "elapsed=%.1fs eta=%.1fs   ",
                     p.done, p.total, p.running, p.failed, p.elapsedSec,
                     p.etaSec);
        if (p.done == p.total)
            std::fprintf(stderr, "\n");
        std::fflush(stderr);
    };
}

Job::Job(const JobSpec &spec) : sys_(spec.cfg)
{
    // System::setWorkload range-checks the core id, so a spec with
    // more slots than cores fails here.
    for (std::size_t c = 0; c < spec.workloads.size(); ++c)
        sys_.setWorkload(static_cast<CoreId>(c), spec.workloads[c].first,
                         spec.workloads[c].second);
    for (const auto &[name, loops] : spec.batch)
        sys_.enqueueWorkload(name, loops);
    // The stream is a pure function of the config, so the same spec
    // yields the same arrivals on any thread.
    if (spec.traffic.enabled()) {
        const traffic::Dispatcher *disp =
            traffic::dispatcherByName(spec.traffic.scheduler);
        if (!disp)
            throw std::invalid_argument("unknown traffic scheduler: " +
                                        spec.traffic.scheduler);
        for (const traffic::Arrival &a : traffic::generate(spec.traffic))
            sys_.enqueueArrival(a);
        sys_.setDispatcher(disp);
        has_traffic_ = true;
        // "none" (the default) installs nothing at all, keeping the
        // run byte-identical to pre-admission builds.
        if (spec.traffic.admissionEnabled()) {
            const traffic::AdmissionPolicy *adm =
                traffic::admissionByName(spec.traffic.admission);
            if (!adm)
                throw std::invalid_argument("unknown admission policy: " +
                                            spec.traffic.admission);
            if (spec.traffic.admissionCap < 1)
                throw std::invalid_argument("admission cap must be >= 1");
            sys_.setAdmission(
                adm, spec.traffic.admissionCap,
                static_cast<Cycle>(spec.traffic.meanGapCycles));
            has_admission_ = true;
        }
    }
    // The sink lives with this job only; no other thread ever sees it
    // (stats.hh concurrency contract).
    if (spec.traceEvents != 0)
        sink_ = std::make_unique<obs::RingSink>(spec.traceCapacity,
                                                spec.traceEvents);
    opt_.maxCycles = spec.maxCycles;
    opt_.sink = sink_.get();
    opt_.snapshotEvery = spec.snapshotEvery;
    opt_.fastForward = spec.fastForward;
    opt_.ffStats = &ff_;
    opt_.watchdogCycles = spec.watchdogCycles;
    opt_.wallClockLimitSec = spec.wallClockLimitSec;
    opt_.checkpointOut = spec.checkpointOut;
    opt_.checkpointEvery = spec.checkpointEvery;
    opt_.simThreads = spec.simThreads;
    if (!spec.faultPlan.empty())
        plan_ = fault::FaultPlan::parse(spec.faultPlan);
    else if (spec.faultSeed)
        plan_ = fault::FaultPlan::random(spec.faultSeed, spec.cfg);
    if (!plan_.empty())
        opt_.faultPlan = &plan_;
}

void
Job::boot(std::istream *ckpt)
{
    if (ckpt)
        sys_.restoreCheckpoint(*ckpt, opt_);
    else
        sys_.boot(opt_);
}

JobResult
Runner::runOne(const JobSpec &spec, unsigned transient_retries)
{
    JobResult out;
    out.id = spec.id;
    out.label = spec.label;
    out.policy = spec.cfg.policy;
    out.retryBudget = transient_retries;

    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned attempt = 0;; ++attempt) {
        out.status = JobStatus::Ok;
        out.error.clear();
        out.result = RunResult{};
        out.trace = obs::TraceBuffer{};
        out.ff = FastForwardStats{};
        // Held outside the try so a throwing or timed-out run still
        // hands back the partial trace it captured. Everything inside
        // the try is a contained per-job failure: a bad name, a
        // malformed fault plan or a mismatched checkpoint fails this
        // job, not the sweep.
        std::optional<Job> job;
        bool transient = false;
        try {
            job.emplace(spec);
            out.hasAdmission = job->hasAdmission();
            if (spec.restoreFrom.empty()) {
                job->boot();
            } else {
                // Resume mid-run: boot + load + run the remainder.
                std::ifstream ckpt_is(spec.restoreFrom,
                                      std::ios::binary);
                if (!ckpt_is)
                    throw std::runtime_error(
                        "cannot open checkpoint file: " +
                        spec.restoreFrom);
                job->boot(&ckpt_is);
            }
            job->sys().advance();
            out.result = job->sys().finalize();
            out.ff = job->ff();
            if (job->hasTraffic()) {
                out.hasTraffic = true;
                out.trafficTenants = spec.traffic.tenants;
                out.trafficMetrics = traffic::computeMetrics(
                    out.result.trafficJobs, spec.traffic.tenants,
                    out.result.cycles);
            }
            if (out.result.timedOut) {
                out.status = JobStatus::Failed;
                out.error = "hit the " + std::to_string(spec.maxCycles) +
                            "-cycle cap (partial result retained)";
            } else if (out.result.wallKilled) {
                out.status = JobStatus::Failed;
                out.error = "killed by the " +
                            std::to_string(spec.wallClockLimitSec) +
                            "s wall-clock limit (partial result "
                            "retained)";
            }
        } catch (const std::bad_alloc &) {
            out.status = JobStatus::Failed;
            out.error = "out of memory";
            transient = true;
        } catch (const std::system_error &e) {
            out.status = JobStatus::Failed;
            out.error = e.what();
            transient = true;
        } catch (const std::exception &e) {
            out.status = JobStatus::Failed;
            out.error = e.what();
        } catch (...) {
            out.status = JobStatus::Failed;
            out.error = "unknown exception";
        }
        if (job && job->sink())
            out.trace = job->sink()->take();
        out.retriesUsed = attempt;
        if (out.ok() || !transient || attempt >= transient_retries)
            break;
        // Host-condition failure with retries left: back off and rerun.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10LL << attempt));
    }
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return out;
}

SweepResult
Runner::run(std::vector<JobSpec> jobs) const
{
    SweepResult sweep;
    const std::size_t n = jobs.size();
    sweep.jobs.resize(n);
    if (n == 0)
        return sweep;

    unsigned threads = opt_.numThreads ? opt_.numThreads : defaultJobs();
    if (threads > n)
        threads = static_cast<unsigned>(n);

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> failed{0};
    std::mutex done_mtx;
    std::condition_variable done_cv;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            ++running;
            // Results land at the spec's position, so completion order
            // (and thus thread count) never affects sweep output.
            sweep.jobs[i] = runOne(jobs[i], opt_.transientRetries);
            if (!sweep.jobs[i].ok())
                ++failed;
            --running;
            {
                std::lock_guard<std::mutex> lock(done_mtx);
                ++done;
            }
            done_cv.notify_one();
        }
    };

    auto progress = [&]() {
        Progress p;
        p.total = n;
        p.done = done.load();
        p.running = running.load();
        p.failed = failed.load();
        p.elapsedSec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        p.etaSec = p.done ? p.elapsedSec / static_cast<double>(p.done) *
                                static_cast<double>(p.total - p.done)
                          : 0.0;
        return p;
    };

    if (threads <= 1 && !opt_.onProgress) {
        // Inline fast path: no pool needed, still fault-contained.
        for (std::size_t i = 0; i < n; ++i) {
            sweep.jobs[i] = runOne(jobs[i], opt_.transientRetries);
            if (!sweep.jobs[i].ok())
                ++failed;
            ++done;
        }
        return sweep;
    }

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);

    if (opt_.onProgress) {
        std::unique_lock<std::mutex> lock(done_mtx);
        while (done.load() < n) {
            opt_.onProgress(progress());
            done_cv.wait_for(lock, std::chrono::milliseconds(500));
        }
    }
    for (auto &t : pool)
        t.join();
    if (opt_.onProgress)
        opt_.onProgress(progress());
    return sweep;
}

} // namespace occamy::runner
