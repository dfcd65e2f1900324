#include "base/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "base/parse.hh"

namespace mitts
{

namespace
{

/** Set while a thread is executing pool work (worker threads always;
 *  the submitting thread while it participates in its own job). */
thread_local bool tlInPoolWork = false;

struct InPoolWorkScope
{
    bool prev;
    InPoolWorkScope() : prev(tlInPoolWork) { tlInPoolWork = true; }
    ~InPoolWorkScope() { tlInPoolWork = prev; }
};

} // namespace

struct ThreadPool::Job
{
    const std::function<void(std::size_t)> &fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::exception_ptr error; ///< first failure, guarded by errMutex
    std::mutex errMutex;

    Job(const std::function<void(std::size_t)> &f, std::size_t n)
        : fn(f), count(n)
    {
    }
};

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads ? threads : defaultThreadCount())
{
    workers_.reserve(threads_ - 1);
    for (unsigned i = 0; i + 1 < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::inWorker()
{
    return tlInPoolWork;
}

unsigned
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("MITTS_THREADS")) {
        try {
            return static_cast<unsigned>(
                parse::positive("MITTS_THREADS", env, 256));
        } catch (const ParseError &) {
            // Invalid: fall back to the hardware thread count.
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{
std::unique_ptr<ThreadPool> gPool;
std::once_flag gPoolOnce;
} // namespace

ThreadPool &
ThreadPool::global()
{
    std::call_once(gPoolOnce, [] {
        if (!gPool)
            gPool = std::make_unique<ThreadPool>();
    });
    return *gPool;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    // Force the once-flag before replacing so global() never races a
    // concurrent first-use (documented single-threaded-context only).
    global();
    gPool = std::make_unique<ThreadPool>(threads);
}

void
ThreadPool::runJob(Job &job)
{
    InPoolWorkScope scope;
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.count)
            return;
        try {
            job.fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(job.errMutex);
            if (!job.error)
                job.error = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        workCv_.wait(lk, [&] {
            return stop_ || (job_ && generation_ != seen);
        });
        if (stop_)
            return;
        seen = generation_;
        Job *job = job_;
        ++active_;
        lk.unlock();
        runJob(*job);
        lk.lock();
        if (--active_ == 0)
            doneCv_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // Serial fallbacks: trivial work, a 1-thread pool, or a nested
    // call from inside pool work (running inline avoids deadlocking
    // on our own workers). Exceptions propagate naturally.
    if (n == 1 || threads_ <= 1 || tlInPoolWork) {
        InPoolWorkScope scope;
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> submit(submitMutex_);
    Job job(fn, n);
    {
        std::lock_guard<std::mutex> lk(mutex_);
        job_ = &job;
        ++generation_;
    }
    workCv_.notify_all();
    runJob(job); // the submitter works too
    {
        // Wait for every worker that claimed this job to leave it;
        // after that no thread can touch `job` again (late wakers see
        // all indices claimed and exit immediately, before the next
        // submit can retire the pointer).
        std::unique_lock<std::mutex> lk(mutex_);
        doneCv_.wait(lk, [&] { return active_ == 0; });
        job_ = nullptr;
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &fn,
            ThreadPool *pool)
{
    (pool ? *pool : ThreadPool::global()).parallelFor(n, fn);
}

} // namespace mitts
