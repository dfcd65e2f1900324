/**
 * @file
 * Parallel experiment engine: a small fixed-size thread pool with
 * deterministic `parallelFor`/`parallelMap` helpers.
 *
 * Every MITTS result is the product of many independent simulations
 * (alone-run calibration, GA per-individual fitness runs, static grid
 * searches, scheduler comparisons). Each simulation owns its System,
 * RNG, and stats, so they are embarrassingly parallel; the helpers
 * here fan a [0, n) index space out across worker threads while
 * keeping results ordered by index, which makes the parallel runs
 * bit-identical to the sequential ones.
 *
 * Thread count comes from MITTS_THREADS (default: hardware
 * concurrency). Nested use from inside a worker degrades to inline
 * serial execution rather than deadlocking, so callers may compose
 * parallel layers freely (e.g. a parallel bench section whose body
 * runs a tuner that parallelizes GA evaluations).
 */

#ifndef MITTS_BASE_THREAD_POOL_HH
#define MITTS_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mitts
{

class ThreadPool
{
  public:
    /** @param threads parallelism degree; 0 = defaultThreadCount(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured parallelism (>= 1, includes the calling thread). */
    unsigned threads() const { return threads_; }

    /**
     * Run fn(0) .. fn(n-1), distributing indices across the pool.
     * Blocks until every index has executed. The first exception
     * thrown by any fn(i) is rethrown here (remaining indices still
     * run, so results for other indices stay well-defined).
     *
     * Serial fallbacks (fn runs inline on the calling thread, in
     * index order): a 1-thread pool, n <= 1, or a call from inside a
     * pool worker (the nested-use guard).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** True when the calling thread is executing pool work; nested
     *  parallelFor/parallelMap calls then run inline serially. */
    static bool inWorker();

    /**
     * MITTS_THREADS from the environment (an integer in [1, 256]), or
     * std::thread::hardware_concurrency() when unset/invalid.
     * Re-reads the environment on every call; the process-wide pool
     * samples it once at first use.
     */
    static unsigned defaultThreadCount();

    /** Process-wide pool used by the free helpers below. */
    static ThreadPool &global();

    /**
     * Replace the process-wide pool with one of `threads` threads
     * (0 = defaultThreadCount()). Not thread-safe: call only from a
     * single-threaded context (startup, tests). Exists so tests and
     * CLIs can compare 1-thread and N-thread runs in one process.
     */
    static void setGlobalThreads(unsigned threads);

  private:
    struct Job;

    void workerLoop();
    static void runJob(Job &job);

    const unsigned threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    Job *job_ = nullptr;          ///< current job, guarded by mutex_
    std::uint64_t generation_ = 0;///< bumped per job, guarded by mutex_
    unsigned active_ = 0;         ///< workers inside runJob
    bool stop_ = false;

    /** Serializes external submitters; one job runs at a time. */
    std::mutex submitMutex_;
};

/** parallelFor on `pool`, or on ThreadPool::global() when null. */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 ThreadPool *pool = nullptr);

/**
 * Evaluate fn(i) for i in [0, n) in parallel and return the results
 * ordered by index — the deterministic reduction primitive every
 * experiment sweep builds on. fn's result type must be
 * default-constructible and movable.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn, ThreadPool *pool = nullptr)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
    parallelFor(
        n, [&](std::size_t i) { out[i] = fn(i); }, pool);
    return out;
}

} // namespace mitts

#endif // MITTS_BASE_THREAD_POOL_HH
