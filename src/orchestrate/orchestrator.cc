#include "orchestrate/orchestrator.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/stats_export.hh"
#include "orchestrate/frame.hh"
#include "orchestrate/journal.hh"
#include "orchestrate/result_cache.hh"
#include "orchestrate/wallclock.hh"
#include "orchestrate/worker.hh"
#include "tuner/offline_tuner.hh"

namespace mitts::orchestrate
{

namespace
{

/** One outstanding request to a worker. */
struct Job
{
    std::uint64_t id = 0;
    MsgType type = MsgType::Unit;
    std::string payload;
};

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw OrchestrateError("cannot write " + tmp);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        if (!out)
            throw OrchestrateError("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw OrchestrateError("rename " + tmp + ": " +
                               std::strerror(errno));
    }
}

/** Value of `<field>=` on the payload's `metrics` line. */
std::string
metricField(const std::string &payload, const std::string &field)
{
    const std::string needle = " " + field + "=";
    const auto pos = payload.find(needle);
    if (pos == std::string::npos)
        throw OrchestrateError("result record lacks metric '" +
                               field + "'");
    const auto begin = pos + needle.size();
    auto end = begin;
    while (end < payload.size() && payload[end] != ' ' &&
           payload[end] != '\n')
        ++end;
    return payload.substr(begin, end - begin);
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Journal appends this run until the test hook kills the parent
 *  (MITTS_SWEEP_TEST_DIE_AFTER_UNITS); 0 = hook disarmed. */
std::uint64_t
dieAfterUnits()
{
    const char *e = std::getenv("MITTS_SWEEP_TEST_DIE_AFTER_UNITS");
    return e ? std::strtoull(e, nullptr, 10) : 0;
}

/**
 * The worker-process pool. Persistent across run() calls (the GA
 * driver submits one batch per generation); workers are forked
 * lazily, SIGKILLed on deadline overrun, reaped on any death and
 * replaced while work remains.
 */
class Farm
{
  public:
    using Handler =
        std::function<void(std::uint64_t, std::string)>;

    Farm(const OrchestratorOptions &opts, std::string init_payload,
         OrchestratorCounters &counters)
        : opts_(opts), init_(std::move(init_payload)),
          counters_(counters)
    {
        MITTS_ASSERT(opts_.workers > 0, "farm needs workers");
        ::signal(SIGPIPE, SIG_IGN);
        slots_.resize(opts_.workers);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            slots_[i].index = i;
        counters_.workerWallMs.assign(opts_.workers, 0);
    }

    ~Farm() { shutdown(); }

    Farm(const Farm &) = delete;
    Farm &operator=(const Farm &) = delete;

    /** Process every job; on_result(id, payload) fires per success
     *  in completion order (callers merge by id, never by arrival —
     *  see detlint R8). */
    void
    run(std::deque<Job> queue, const Handler &on_result)
    {
        std::map<std::uint64_t, unsigned> attempts;
        std::size_t pending = queue.size();

        while (pending > 0) {
            topUp(queue, attempts);

            struct pollfd fds[kMaxSlots];
            std::size_t slot_of[kMaxSlots];
            nfds_t nfds = 0;
            bool any_deadline = false;
            std::uint64_t next_deadline = 0;
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                Slot &s = slots_[i];
                if (s.pid < 0 || !s.busy)
                    continue;
                slot_of[nfds] = i;
                fds[nfds].fd = s.fromFd;
                fds[nfds].events = POLLIN;
                fds[nfds].revents = 0;
                ++nfds;
                if (s.deadlineMs) {
                    next_deadline =
                        any_deadline
                            ? std::min(next_deadline, s.deadlineMs)
                            : s.deadlineMs;
                    any_deadline = true;
                }
            }
            if (nfds == 0)
                continue; // all workers died; topUp respawns

            int timeout_ms = -1;
            if (any_deadline) {
                const std::uint64_t now = nowMs();
                timeout_ms =
                    next_deadline > now
                        ? static_cast<int>(std::min<std::uint64_t>(
                              next_deadline - now, 60'000))
                        : 0;
            }
            const int rv = ::poll(fds, nfds, timeout_ms);
            if (rv < 0 && errno != EINTR)
                throw OrchestrateError(
                    std::string("poll: ") + std::strerror(errno));

            for (nfds_t i = 0; rv > 0 && i < nfds; ++i) {
                if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                drain(slots_[slot_of[i]], queue, attempts, pending,
                      on_result);
            }

            // Deadline enforcement (after draining: a result that
            // arrived in time wins over a tardy clock edge).
            const std::uint64_t now = nowMs();
            for (Slot &s : slots_) {
                if (s.pid >= 0 && s.busy && s.deadlineMs &&
                    now >= s.deadlineMs) {
                    ::kill(s.pid, SIGKILL);
                    onDeath(s, queue, attempts);
                }
            }
        }
    }

    void
    shutdown()
    {
        for (Slot &s : slots_) {
            if (s.pid < 0)
                continue;
            writeFrame(s.toFd, MsgType::Shutdown, "");
            ::close(s.toFd);
            ::close(s.fromFd);
            int status = 0;
            ::waitpid(s.pid, &status, 0);
            s.pid = -1;
        }
    }

  private:
    static constexpr std::size_t kMaxSlots = 256;

    struct Slot
    {
        pid_t pid = -1;
        int toFd = -1;
        int fromFd = -1;
        FrameReader reader;
        bool busy = false;
        bool everSpawned = false;
        Job job;
        std::uint64_t startMs = 0;
        std::uint64_t deadlineMs = 0;
        std::size_t index = 0;
    };

    void
    spawn(Slot &s)
    {
        int p2c[2], c2p[2];
        if (::pipe(p2c) != 0 || ::pipe(c2p) != 0)
            throw OrchestrateError(std::string("pipe: ") +
                                   std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            throw OrchestrateError(std::string("fork: ") +
                                   std::strerror(errno));
        if (pid == 0) {
            ::dup2(p2c[0], 0);
            ::dup2(c2p[1], 1);
            ::close(p2c[0]);
            ::close(p2c[1]);
            ::close(c2p[0]);
            ::close(c2p[1]);
            ::execl(opts_.workerExe.c_str(),
                    opts_.workerExe.c_str(), "--worker",
                    static_cast<char *>(nullptr));
            std::fprintf(stderr, "mitts_sweep: exec %s: %s\n",
                         opts_.workerExe.c_str(),
                         std::strerror(errno));
            ::_exit(127);
        }
        ::close(p2c[0]);
        ::close(c2p[1]);
        s.pid = pid;
        s.toFd = p2c[1];
        s.fromFd = c2p[0];
        s.reader = FrameReader();
        s.busy = false;
        ::fcntl(s.toFd, F_SETFD, FD_CLOEXEC);
        ::fcntl(s.fromFd, F_SETFD, FD_CLOEXEC);
        ::fcntl(s.fromFd, F_SETFL, O_NONBLOCK);
        if (s.everSpawned)
            ++counters_.respawns;
        s.everSpawned = true;
        if (!writeFrame(s.toFd, MsgType::Init, init_))
            throw OrchestrateError("worker rejected Init frame");
    }

    void
    topUp(std::deque<Job> &queue,
          std::map<std::uint64_t, unsigned> &attempts)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            Slot &s = slots_[i];
            if (queue.empty())
                break;
            if (s.pid < 0)
                spawn(s);
            if (s.busy)
                continue;
            Job j = std::move(queue.front());
            queue.pop_front();
            s.job = j;
            s.busy = true;
            s.startMs = nowMs();
            s.deadlineMs =
                opts_.unitTimeoutSec > 0
                    ? s.startMs +
                          static_cast<std::uint64_t>(
                              opts_.unitTimeoutSec * 1000.0)
                    : 0;
            if (!writeFrame(s.toFd, s.job.type, s.job.payload)) {
                // Died between jobs; recycle the slot and put the
                // job through the bounded-retry accounting.
                onDeath(s, queue, attempts);
            }
        }
    }

    void
    requeue(Job job, std::deque<Job> &queue,
            std::map<std::uint64_t, unsigned> &attempts)
    {
        const unsigned tries = ++attempts[job.id];
        ++counters_.retried;
        if (tries > opts_.maxRetries)
            throw OrchestrateError(
                "unit " + std::to_string(job.id) +
                " failed after " + std::to_string(tries) +
                " retries (worker crash or timeout)");
        queue.push_front(std::move(job));
    }

    /** Reap a dead (or doomed) worker; re-queue its in-flight job. */
    void
    onDeath(Slot &s, std::deque<Job> &queue,
            std::map<std::uint64_t, unsigned> &attempts)
    {
        ::close(s.toFd);
        ::close(s.fromFd);
        int status = 0;
        ::waitpid(s.pid, &status, 0);
        s.pid = -1;
        if (s.busy) {
            counters_.workerWallMs[s.index] += nowMs() - s.startMs;
            s.busy = false;
            requeue(std::move(s.job), queue, attempts);
        }
    }

    void
    drain(Slot &s, std::deque<Job> &queue,
          std::map<std::uint64_t, unsigned> &attempts,
          std::size_t &pending, const Handler &on_result)
    {
        bool dead = false;
        char buf[65536];
        for (;;) {
            const ssize_t r = ::read(s.fromFd, buf, sizeof(buf));
            if (r > 0) {
                s.reader.feed(buf, static_cast<std::size_t>(r));
                continue;
            }
            if (r == 0) {
                dead = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            dead = true;
            break;
        }

        while (auto fr = s.reader.next()) {
            std::size_t pos = 0;
            const std::uint64_t id = getU64(fr->payload, pos);
            if (fr->type == MsgType::Error)
                throw OrchestrateError(
                    "worker reported error on unit " +
                    std::to_string(id) + ": " +
                    fr->payload.substr(pos));
            if (fr->type != MsgType::Result || !s.busy ||
                id != s.job.id)
                throw OrchestrateError(
                    "protocol violation from worker (unexpected "
                    "frame)");
            counters_.workerWallMs[s.index] += nowMs() - s.startMs;
            s.busy = false;
            attempts.erase(id);
            --pending;
            on_result(id, fr->payload.substr(pos));
        }

        if (dead)
            onDeath(s, queue, attempts);
    }

    const OrchestratorOptions &opts_;
    std::string init_;
    OrchestratorCounters &counters_;
    std::vector<Slot> slots_;
};

std::string
initPayload(const SweepSpec &spec, const OrchestratorOptions &opts)
{
    std::string payload;
    putStr(payload, specToText(spec));
    putStr(payload, opts.cacheDir);
    return payload;
}

// ---- grid mode ---------------------------------------------------

OrchestratorCounters
runGrid(const SweepSpec &spec, const OrchestratorOptions &opts)
{
    OrchestratorCounters counters;
    ResultCache cache(opts.cacheDir);
    Journal journal(opts.outDir + "/journal.log");

    const std::uint64_t n = unitCount(spec);
    counters.totalUnits = n;
    std::vector<std::string> unitPayloads(n);
    std::vector<char> have(n, 0);
    std::vector<std::uint64_t> keys(n);
    std::vector<std::string> descs(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const UnitSpec u = unitAt(spec, i);
        keys[i] = unitCacheKey(spec, u);
        descs[i] = unitDesc(spec, u);
    }

    // Journal replay: a recorded unit counts only if its key still
    // matches this spec AND the cache still holds the payload.
    for (const auto &e : journal.recovered()) {
        if (e.index >= n || have[e.index] || e.key != keys[e.index])
            continue;
        if (auto hit = cache.lookup(keys[e.index], descs[e.index])) {
            unitPayloads[e.index] = std::move(*hit);
            have[e.index] = 1;
            ++counters.replayed;
            ++counters.cached;
        }
    }

    // Cache pass for everything the journal didn't cover.
    std::vector<std::uint64_t> todo;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (have[i])
            continue;
        if (auto hit = cache.lookup(keys[i], descs[i])) {
            unitPayloads[i] = std::move(*hit);
            have[i] = 1;
            ++counters.cached;
        } else {
            todo.push_back(i);
        }
    }

    const std::uint64_t die_after = dieAfterUnits();
    std::uint64_t journaled = 0;
    auto complete = [&](std::uint64_t idx, std::string payload) {
        cache.store(keys[idx], descs[idx], payload);
        journal.append(idx, keys[idx]);
        unitPayloads[idx] = std::move(payload);
        have[idx] = 1;
        ++counters.dispatched;
        if (die_after && ++journaled >= die_after)
            std::_Exit(3); // test hook: simulate a killed sweep
    };

    if (!todo.empty() && opts.workers == 0) {
        WorkerContext ctx(spec, opts.cacheDir);
        for (const std::uint64_t idx : todo)
            complete(idx, ctx.evaluateUnit(idx));
    } else if (!todo.empty()) {
        Farm farm(opts, initPayload(spec, opts), counters);
        std::deque<Job> jobs;
        for (const std::uint64_t idx : todo) {
            Job j;
            j.id = idx;
            j.type = MsgType::Unit;
            putU64(j.payload, idx);
            jobs.push_back(std::move(j));
        }
        farm.run(std::move(jobs), complete);
    }

    // Deterministic merge: strictly ascending unit index.
    std::ostringstream merged_os;
    for (std::uint64_t i = 0; i < n; ++i) {
        MITTS_ASSERT(have[i], "unit ", i, " never completed");
        merged_os << unitPayloads[i];
    }
    writeFileAtomic(opts.outDir + "/results.txt", merged_os.str());

    std::ostringstream js;
    js << "{\n  \"name\": \"" << stats::jsonEscape(spec.name) << "\",\n"
       << "  \"mode\": \"grid\",\n"
       << "  \"units\": " << n << ",\n";
    auto metric_array = [&](const char *field) {
        js << "  \"" << field << "\": [";
        for (std::uint64_t i = 0; i < n; ++i)
            js << (i ? ", " : "")
               << metricField(unitPayloads[i], field);
        js << "]";
    };
    metric_array("savg");
    js << ",\n";
    metric_array("smax");
    js << "\n}\n";
    writeFileAtomic(opts.outDir + "/summary.json", js.str());
    return counters;
}

// ---- tune mode ---------------------------------------------------

OrchestratorCounters
runTune(const SweepSpec &spec, const OrchestratorOptions &opts)
{
    OrchestratorCounters counters;
    ResultCache cache(opts.cacheDir);
    WorkerContext ctx(spec, opts.cacheDir);

    const SystemConfig base = tuneBaseConfig(spec);
    const RunnerOptions ropts{spec.instr, spec.maxCycles};
    const std::vector<Tick> alone =
        ctx.aloneFor(base, spec.instr);

    std::unique_ptr<Farm> farm;
    if (opts.workers > 0)
        farm = std::make_unique<Farm>(
            opts, initPayload(spec, opts), counters);

    OfflineTunerOptions topts;
    topts.ga.populationSize = spec.population;
    topts.ga.generations = spec.generations;
    topts.ga.seed = spec.gaSeed;
    topts.run = ropts;
    topts.prefilter.enabled = spec.prefilter;
    topts.caEvaluator = [&](const std::vector<Genome> &gen) {
        std::vector<double> fitness(gen.size(), 0.0);
        struct Pending
        {
            std::size_t i;
            std::uint64_t key;
            std::string desc;
        };
        std::vector<Pending> todo;
        for (std::size_t i = 0; i < gen.size(); ++i) {
            const std::uint64_t key = genomeCacheKey(spec, gen[i]);
            const std::string desc = genomeDesc(spec, gen[i]);
            double f = 0.0;
            if (auto hit = cache.lookup(key, desc);
                hit && fitnessFromPayload(*hit, f)) {
                fitness[i] = f;
                ++counters.gaCacheHits;
            } else {
                todo.push_back({i, key, desc});
            }
        }
        counters.gaEvaluated += todo.size();
        counters.dispatched += todo.size();

        if (!farm) {
            for (const auto &p : todo) {
                fitness[p.i] = ctx.evaluateGenome(gen[p.i]);
                cache.store(p.key, p.desc,
                            fitnessToPayload(fitness[p.i]));
            }
        } else if (!todo.empty()) {
            std::deque<Job> jobs;
            for (std::size_t j = 0; j < todo.size(); ++j) {
                Job job;
                job.id = j;
                job.type = MsgType::Genome;
                putU64(job.payload, j);
                putU32(job.payload,
                       static_cast<std::uint32_t>(
                           gen[todo[j].i].size()));
                for (const std::uint32_t g : gen[todo[j].i])
                    putU32(job.payload, g);
                jobs.push_back(std::move(job));
            }
            farm->run(
                std::move(jobs),
                [&](std::uint64_t id, std::string payload) {
                    std::size_t pos = 0;
                    const double f = std::bit_cast<double>(
                        getU64(payload, pos));
                    const Pending &p =
                        todo[static_cast<std::size_t>(id)];
                    fitness[p.i] = f;
                    cache.store(p.key, p.desc,
                                fitnessToPayload(f));
                });
        }
        return fitness;
    };

    const MultiTuneResult best =
        tuneMultiProgram(base, alone, spec.objective, 0, topts);
    counters.totalUnits = best.ga.evaluations;

    std::ostringstream os;
    os << "tune " << spec.name
       << " objective=" << objectiveName(spec.objective)
       << " generations=" << spec.generations
       << " population=" << spec.population
       << " ga_seed=" << spec.gaSeed
       << " warmup=" << spec.warmupInstr << "\n";
    os << "history";
    for (const double h : best.ga.history)
        os << " " << fmtDouble(h);
    os << "\n";
    os << "best fitness=" << fmtDouble(best.ga.bestFitness) << "\n";
    for (std::size_t c = 0; c < best.best.size(); ++c) {
        os << "core " << c << " credits=";
        for (std::size_t i = 0; i < best.best[c].credits.size();
             ++i)
            os << (i ? ":" : "") << best.best[c].credits[i];
        os << "\n";
    }
    os << "metrics savg=" << fmtDouble(best.metrics.savg)
       << " smax=" << fmtDouble(best.metrics.smax)
       << " ws=" << fmtDouble(best.metrics.weightedSpeedup)
       << " hs=" << fmtDouble(best.metrics.harmonicSpeedup)
       << "\n";
    writeFileAtomic(opts.outDir + "/results.txt", os.str());

    std::ostringstream js;
    js << "{\n  \"name\": \"" << stats::jsonEscape(spec.name) << "\",\n"
       << "  \"mode\": \"tune\",\n"
       << "  \"best_fitness\": " << fmtDouble(best.ga.bestFitness)
       << ",\n"
       << "  \"savg\": " << fmtDouble(best.metrics.savg) << ",\n"
       << "  \"smax\": " << fmtDouble(best.metrics.smax) << "\n}\n";
    writeFileAtomic(opts.outDir + "/summary.json", js.str());
    return counters;
}

} // namespace

void
OrchestratorCounters::print(std::ostream &os,
                            const std::string &name) const
{
    os << "sweep " << name << ": units=" << totalUnits
       << " dispatched=" << dispatched << " cached=" << cached
       << " replayed=" << replayed << " retried=" << retried
       << " respawns=" << respawns << "\n";
    if (gaEvaluated || gaCacheHits)
        os << "tune " << name << ": evaluated=" << gaEvaluated
           << " cache_hits=" << gaCacheHits << "\n";
    for (std::size_t i = 0; i < workerWallMs.size(); ++i)
        os << "worker " << i << ": wall_ms=" << workerWallMs[i]
           << "\n";
}

OrchestratorCounters
runSweep(const SweepSpec &spec, const OrchestratorOptions &opts)
{
    validateSweep(spec);
    if (opts.workers > 0 && opts.workerExe.empty())
        throw OrchestrateError("workers > 0 needs a worker binary");
    if (opts.workers > 256)
        throw OrchestrateError("at most 256 workers");
    makeDirs(opts.outDir);
    makeDirs(opts.cacheDir);
    return spec.mode == SweepMode::Grid ? runGrid(spec, opts)
                                        : runTune(spec, opts);
}

} // namespace mitts::orchestrate
