/**
 * @file
 * Worker pool for the parallel cluster tick phase.
 *
 * The cycle loop forks the same job shape once per window round: "run
 * every ClusterEngine up to its stop, then join". A condition-variable
 * barrier would pay two syscalls per round; TickPool instead keeps its
 * workers resident and synchronizes through two atomics — an epoch the
 * coordinator bumps to publish work (release) and a done counter it
 * waits on (acquire). The release/acquire pairs on epoch/done give the
 * happens-before edges ThreadSanitizer (and the memory model) require:
 * everything the coordinator wrote before run() is visible to the
 * workers, and everything the workers wrote to their engines is
 * visible to the coordinator after run() returns.
 *
 * Of T participants (the coordinator is 0), participant p runs the
 * p-th of T contiguous blocks of tasks. The fixed assignment keeps
 * each engine's allocations in one thread's malloc arena round after
 * round; handing tasks out from a shared counter scattered them across
 * arenas, and peak memory grew with every run a process made. Engines
 * are independent, so the assignment never affects results.
 *
 * Waits spin then park: a worker spins and yields for a short budget
 * (back-to-back rounds never syscall), then blocks on the epoch with a
 * C++20 atomic wait, so a System idling between advance() calls costs
 * no CPU. The coordinator calls notify_all only while some worker is
 * parked. The coordinator's own wait for the join spins then yields.
 * Exceptions thrown by tasks are captured per task index and rethrown
 * by run() in index order (deterministic first-failure).
 */

#ifndef OCCAMY_SIM_TICK_POOL_HH
#define OCCAMY_SIM_TICK_POOL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace occamy
{

/** Resident fork-join pool; the calling thread participates. */
class TickPool
{
  public:
    /**
     * @param threads Total participants including the coordinator;
     * spawns threads-1 workers. <= 1 spawns nothing and run() degrades
     * to a serial loop.
     */
    explicit TickPool(unsigned threads);
    ~TickPool();

    TickPool(const TickPool &) = delete;
    TickPool &operator=(const TickPool &) = delete;

    /** Run fn(0..n-1) across the coordinator and the workers; returns
     *  when every task finished. Not reentrant. */
    void run(unsigned n, const std::function<void(unsigned)> &fn);

    /** Total participants (coordinator + workers). */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

  private:
    void workerLoop(unsigned self);
    /** Run participant @p self's contiguous block of tasks. */
    void drainTasks(unsigned self);
    /** Bump the epoch, waking parked workers if there are any. */
    void publish();

    const std::function<void(unsigned)> *fn_ = nullptr;
    unsigned n_ = 0;
    std::vector<std::exception_ptr> errors_;

    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> done_{0};
    std::atomic<bool> quit_{false};
    /** Workers blocked (or about to block) in epoch_.wait(). */
    std::atomic<unsigned> parked_{0};

    std::vector<std::thread> workers_;
};

} // namespace occamy

#endif // OCCAMY_SIM_TICK_POOL_HH
