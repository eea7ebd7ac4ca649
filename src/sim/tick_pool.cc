#include "sim/tick_pool.hh"

namespace occamy
{

namespace
{

/** Spin this many probes before yielding the time slice: long enough
 *  that a dedicated core never syscalls, short enough that a shared
 *  core hands over promptly. */
constexpr unsigned kSpinProbes = 2048;

/** Yields an idle worker makes before it parks. */
constexpr unsigned kYieldsBeforePark = 64;

template <class Pred>
void
spinUntil(Pred pred)
{
    unsigned probes = 0;
    while (!pred()) {
        if (++probes >= kSpinProbes) {
            probes = 0;
            std::this_thread::yield();
        }
    }
}

} // namespace

TickPool::TickPool(unsigned threads)
{
    const unsigned nworkers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(nworkers);
    for (unsigned i = 0; i < nworkers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i + 1); });
}

TickPool::~TickPool()
{
    quit_.store(true, std::memory_order_relaxed);
    publish();
    for (std::thread &t : workers_)
        t.join();
}

void
TickPool::drainTasks(unsigned self)
{
    const unsigned t = threads();
    for (unsigned i = self * n_ / t; i < (self + 1) * n_ / t; ++i) {
        try {
            (*fn_)(i);
        } catch (...) {
            errors_[i] = std::current_exception();
        }
    }
}

void
TickPool::publish()
{
    // seq_cst on both sides (here and the parked_ increment before
    // epoch_.wait) means either this load sees the parked worker or
    // that worker's wait sees the new epoch — never neither.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0)
        epoch_.notify_all();
}

void
TickPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        unsigned probes = 0;
        unsigned yields = 0;
        while (epoch_.load(std::memory_order_acquire) == seen) {
            if (++probes < kSpinProbes)
                continue;
            probes = 0;
            if (++yields < kYieldsBeforePark) {
                std::this_thread::yield();
                continue;
            }
            parked_.fetch_add(1, std::memory_order_seq_cst);
            epoch_.wait(seen, std::memory_order_seq_cst);
            parked_.fetch_sub(1, std::memory_order_relaxed);
            yields = 0;
        }
        ++seen;
        if (quit_.load(std::memory_order_relaxed))
            return;
        drainTasks(self);
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
TickPool::run(unsigned n, const std::function<void(unsigned)> &fn)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        for (unsigned i = 0; i < n; ++i)
            fn(i);      // Serial: propagate exceptions directly.
        return;
    }
    fn_ = &fn;
    n_ = n;
    errors_.assign(n, nullptr);
    done_.store(0, std::memory_order_relaxed);
    publish();

    drainTasks(0);      // The coordinator participates.

    const unsigned workers = static_cast<unsigned>(workers_.size());
    spinUntil([&] {
        return done_.load(std::memory_order_acquire) == workers;
    });
    fn_ = nullptr;
    for (std::exception_ptr &e : errors_)
        if (e)
            std::rethrow_exception(e);
}

} // namespace occamy
