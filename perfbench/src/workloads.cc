/**
 * @file
 * The four benchmark workloads. Each drives the simulator only
 * through its public API, times from the outside, checks every
 * repetition's deterministic outputs against a digest recorded for
 * its (workload, seed), and fills a Report with the catalogued
 * metrics of the run's mode.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "cloud/engine.hh"
#include "decorators.hh"
#include "orchestrate/orchestrator.hh"
#include "stats.hh"
#include "system/runner.hh"
#include "tracer.hh"

namespace fs = std::filesystem;
using namespace mitts;

namespace perfbench
{

namespace
{

constexpr std::size_t kMinReps = 3;
/** Set-ups timed back to back as one setup_s sample. */
constexpr std::size_t kSetupsPerSample = 16;

double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
meanOf(const std::vector<double> &v, std::size_t from, std::size_t to)
{
    double sum = 0;
    for (std::size_t i = from; i < to; ++i)
        sum += v[i];
    return to > from ? sum / static_cast<double>(to - from) : 0.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Peak resident set of this process in MB (VmHWM: unlike
 *  getrusage's ru_maxrss it is not inherited across fork and exec
 *  from a launcher). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::uint64_t
statsDigest(const System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return fnv1a(os.str());
}

/** Keep repeating until `seconds` of measurement have passed (and
 *  at least kMinReps repetitions, or two traced/untraced pairs). */
bool
moreReps(std::size_t reps, std::uint64_t t0, const Options &opt)
{
    const std::size_t min = opt.trace ? 4 : kMinReps;
    return reps < min || secondsSince(t0) < opt.seconds;
}

/** Per-repetition samples of named metrics; reported as medians. */
class Samples
{
  public:
    void add(const std::string &k, double v) { s_[k].push_back(v); }
    const std::vector<double> &
    get(const std::string &k) const
    {
        static const std::vector<double> none;
        const auto it = s_.find(k);
        return it == s_.end() ? none : it->second;
    }
    double med(const std::string &k) const { return median(get(k)); }
    double
    mean(const std::string &k) const
    {
        return meanOf(get(k), 0, get(k).size());
    }
    void
    foldInto(Report &r) const
    {
        for (const auto &[k, v] : s_)
            r.metrics[k] = median(v);
    }

  private:
    std::map<std::string, std::vector<double>> s_;
};

/**
 * Time kSetupsPerSample calls of `setUp` as one sample of setup_s
 * (the mean per set-up). Each workload takes one sample before every
 * repetition, outside its timed phase, so the samples spread over
 * the run instead of sharing one moment of host noise.
 */
template <class SetUp>
void
sampleSetup(std::vector<double> &setup, SetUp &&setUp)
{
    const std::uint64_t t0 = nowNs();
    for (std::size_t k = 0; k < kSetupsPerSample; ++k)
        setUp();
    setup.push_back(secondsSince(t0) / kSetupsPerSample);
}

/** Every per-layer metric starts at 0: a layer that does not run on
 *  a workload reads 0. */
void
zeroPerLayer(Report &r)
{
    for (const auto &d : perLayerMetrics())
        r.metrics[d.name] = 0.0;
}

/** End-to-end samples common to every workload. */
struct EndToEnd
{
    std::vector<double> wall, setup, stepMs, mips, ipc;

    void
    finish(Report &r) const
    {
        // Means, not medians: with a handful of repetitions per run
        // the mean follows the host's drifting speed more steadily.
        // wall_s is the run's timed seconds per timed phase, the
        // inverse of its throughput.
        r.metrics["wall_s"] = meanOf(wall, 0, wall.size());
        r.metrics["setup_s"] = meanOf(setup, 0, setup.size());
        r.metrics["peak_rss_mb"] = peakRssMb();
        r.extra.push_back({"sim_mips", median(mips), "MIPS"});
        r.extra.push_back({"sim_ipc", median(ipc), "IPC"});
        r.extra.push_back({"step_ms_p50", median(stepMs), "ms"});
        const Tail t = tailPercentile(stepMs);
        if (t.pct > 0.0) {
            std::ostringstream name;
            name << "step_ms_p" << t.pct;
            r.extra.push_back({name.str(), t.value, "ms"});
        }
        r.extra.push_back(
            {"steps", static_cast<double>(stepMs.size()), "count"});
        r.extra.push_back(
            {"reps", static_cast<double>(wall.size()), "count"});
    }
};

/** Model counters summed over the cores of one or more Systems. */
struct ModelCounters
{
    double instr = 0, memStall = 0, cycles = 0, skipped = 0;
    double coreCycles = 0; ///< cycles x cores
    double l1Hits = 0, l1Misses = 0, gateStall = 0;
    double llcHits = 0, llcMisses = 0;
    double rowHits = 0, rowMisses = 0;
    double queueLatency = 0, queued = 0; ///< MC queue latency samples
    double systems = 0;

    void
    add(System &sys)
    {
        const double now = static_cast<double>(sys.sim().now());
        cycles += now;
        skipped += static_cast<double>(sys.sim().cyclesSkipped());
        coreCycles += now * sys.numCores();
        for (unsigned i = 0; i < sys.numCores(); ++i) {
            const auto c = static_cast<CoreId>(i);
            instr += static_cast<double>(sys.instructions(c));
            memStall += static_cast<double>(sys.memStallCycles(c));
            l1Hits += static_cast<double>(sys.l1(c).hits());
            l1Misses += static_cast<double>(sys.l1(c).misses());
            gateStall +=
                static_cast<double>(sys.l1(c).shaperStallCycles());
        }
        llcHits += static_cast<double>(sys.llc().hits());
        llcMisses += static_cast<double>(sys.llc().misses());
        MemController &mc = sys.memController();
        for (unsigned ch = 0; ch < mc.numChannels(); ++ch) {
            rowHits += static_cast<double>(mc.dram(ch).rowHits());
            rowMisses += static_cast<double>(mc.dram(ch).rowMisses());
        }
        const auto &avgs = mc.statsGroup().averages();
        const auto lat = std::find_if(
            avgs.begin(), avgs.end(),
            [](const auto &a) { return a->name() == "queue_latency"; });
        if (lat == avgs.end())
            throw std::runtime_error("memory controller has no "
                                     "queue_latency statistic");
        queueLatency += (*lat)->sum();
        queued += static_cast<double>((*lat)->count());
        ++systems;
    }

    ModelCounters
    operator-(const ModelCounters &o) const
    {
        ModelCounters d = *this;
        d.instr -= o.instr;
        d.memStall -= o.memStall;
        d.cycles -= o.cycles;
        d.skipped -= o.skipped;
        d.coreCycles -= o.coreCycles;
        d.l1Hits -= o.l1Hits;
        d.l1Misses -= o.l1Misses;
        d.gateStall -= o.gateStall;
        d.llcHits -= o.llcHits;
        d.llcMisses -= o.llcMisses;
        d.rowHits -= o.rowHits;
        d.rowMisses -= o.rowMisses;
        d.queueLatency -= o.queueLatency;
        d.queued -= o.queued;
        return d;
    }

    /** Summed IPC: instructions of all cores per cycle of one
     *  System (averaged over Systems). */
    double ipc() const { return ratio(instr * systems, cycles); }

    void
    addLayers(Samples &s) const
    {
        s.add("sim.skip_ratio", ratio(skipped, cycles));
        s.add("sim.executed_cycles", cycles - skipped);
        s.add("core.mem_stall_ratio", ratio(memStall, coreCycles));
        s.add("l1.miss_ratio", ratio(l1Misses, l1Hits + l1Misses));
        s.add("l1.gate_stall_cycles", gateStall);
        s.add("llc.hit_ratio", ratio(llcHits, llcHits + llcMisses));
        s.add("dram.row_hit_ratio",
              ratio(rowHits, rowHits + rowMisses));
        s.add("mc.queue_latency_cycles", ratio(queueLatency, queued));
    }
};

/** Layer figures the decorators and the tracer measured. */
void
addTracedLayers(Samples &s, const Tracer &t, const DecoratorCounts &n)
{
    for (const Layer l : {Layer::TraceNext, Layer::CoreLoadComplete,
                          Layer::LlcPush, Layer::GateTryIssue,
                          Layer::McPush, Layer::SchedPick}) {
        const Tracer::Aggregate &a = t.aggregate(l);
        s.add(std::string(layerName(l)) + "_calls",
              static_cast<double>(a.calls));
        s.add(std::string(layerName(l)) + "_ns",
              static_cast<double>(a.selfNs));
    }
    const auto calls = [&](Layer l) {
        return static_cast<double>(t.aggregate(l).calls);
    };
    s.add("llc.accept_ratio",
          ratio(static_cast<double>(n.llcAccepts),
                static_cast<double>(n.llcOffers)));
    s.add("mc.accept_ratio", ratio(static_cast<double>(n.mcAccepts),
                                   static_cast<double>(n.mcOffers)));
    s.add("shaper.grant_ratio",
          ratio(static_cast<double>(n.gateGrants),
                calls(Layer::GateTryIssue)));
    s.add("shaper.wake_polls", static_cast<double>(n.gateWakePolls));
    s.add("sched.idle_pick_ratio",
          ratio(static_cast<double>(n.idlePicks),
                calls(Layer::SchedPick)));
}

/** Host-time figures of a traced run: residual per executed cycle,
 *  untraced cost per executed cycle and the tracing overhead. */
void
finishTraced(Report &r, const Samples &traced, double untracedWall,
             double executed)
{
    traced.foldInto(r);
    r.metrics["sim.ns_per_executed_cycle"] =
        ratio(untracedWall * 1e9, executed);
    r.metrics["sim.residual_ns_per_executed_cycle"] = ratio(
        std::max(0.0, untracedWall * 1e9 - traced.med("self_ns")),
        executed);
    r.metrics["tracing.overhead_ratio"] =
        ratio(traced.mean("wall"), untracedWall);
    r.metrics.erase("wall");
    r.metrics.erase("self_ns");
}

void
writeTrace(const Options &opt, const Tracer &t)
{
    std::ofstream os(opt.tracePath);
    t.writeJson(os);
}

// ---- saturated / shaped: one System, warm checkpoint --------------

struct SliceSpec
{
    Tick warmup; ///< cycles simulated once before the checkpoint
    Tick timed;  ///< cycles of each timed repetition
    Tick slice;  ///< cycles per step
    /** The skip layer's bracket: the timed phase's share of skipped
     *  cycles must lie in [skipMin, skipMax]. */
    double skipMin, skipMax;
    /** Steady state: the timed phase's halves and the last quarter
     *  of the warm-up skip shares within this fraction of the timed
     *  phase's own share. */
    double skipRelTol;
};

// Warm-ups end well after the measured cold-start transients: the
// skipped-cycle share settles by ~0.5M cycles on saturated and by
// ~2.5M cycles on shaped. Saturated (the skip layer's control) skips
// little and in bursts: over seeds 1-10 and 1009 its halves and warm-up tail
// differed from the timed share by up to 0.6 of it; shaped's (the
// subject's) by at most 0.03 (README "Steady state").
constexpr SliceSpec kSaturated{1'500'000, 3'000'000, 10'000,
                               0.0,       0.02,      0.9};
constexpr SliceSpec kShaped{3'500'000, 6'000'000, 10'000,
                            0.2,       1.0,       0.15};

const std::vector<std::string> kSliceApps = {"mcf", "libquantum",
                                             "omnetpp", "astar"};
constexpr std::uint32_t kShapedCredits = 10; ///< in the slowest bin

SystemConfig
sliceConfig(bool shaped, std::uint64_t seed,
            std::shared_ptr<TraceHook> hook)
{
    SystemConfig cfg = SystemConfig::multiProgram(kSliceApps);
    cfg.seed = seed;
    cfg.sched = SchedulerKind::Frfcfs;
    if (shaped) {
        cfg.gate = GateKind::Mitts;
        cfg.mittsConfigs.assign(
            kSliceApps.size(),
            BinConfig::singleBin(cfg.binSpec, cfg.binSpec.numBins - 1,
                                 kShapedCredits));
    }
    installTraceFactory(cfg, std::move(hook));
    return cfg;
}

struct Phase
{
    double wallS = 0;
    ModelCounters delta;
    std::vector<double> stepMs, stepSkip;
};

Phase
runSlices(System &sys, const SliceSpec &spec, Tick cycles, Tracer *t)
{
    Phase p;
    ModelCounters before;
    before.add(sys);
    const std::uint64_t t0 = nowNs();
    for (Tick done = 0, i = 0; done < cycles; done += spec.slice, ++i) {
        const std::uint64_t s0 = nowNs();
        const std::uint64_t k0 = sys.sim().cyclesSkipped();
        if (t)
            t->beginStep(i);
        sys.run(spec.slice);
        if (t)
            t->endStep();
        p.stepMs.push_back(static_cast<double>(nowNs() - s0) * 1e-6);
        p.stepSkip.push_back(
            static_cast<double>(sys.sim().cyclesSkipped() - k0) /
            static_cast<double>(spec.slice));
    }
    p.wallS = secondsSince(t0);
    ModelCounters after;
    after.add(sys);
    p.delta = after - before;
    return p;
}

/**
 * Steady-state guard over the warm-up and the straight timed phase
 * (the per-step series is written to `csvPath`): the timed phase
 * skips a share of cycles inside the workload's bracket, and each of
 * its halves and the last quarter of the warm-up skips a share
 * within the workload's tolerance of it. The first tenth of the warm-up is reported to show the
 * cold-start transient the warm checkpoint removes.
 */
bool
steadyGuard(Report &r, const SliceSpec &spec, const Phase &warm,
            const Phase &timed, const std::string &csvPath)
{
    std::ofstream csv(csvPath);
    csv << "phase,step,skip_ratio,host_ms\n";
    for (const auto *p : {&warm, &timed}) {
        for (std::size_t i = 0; i < p->stepSkip.size(); ++i)
            csv << (p == &warm ? "warmup," : "timed,") << i << ','
                << p->stepSkip[i] << ',' << p->stepMs[i] << '\n';
    }

    const std::size_t w = warm.stepSkip.size();
    const std::size_t n = timed.stepSkip.size();
    const double cold = meanOf(warm.stepSkip, 0, w / 10);
    const double tail = meanOf(warm.stepSkip, w - w / 4, w);
    const double first = meanOf(timed.stepSkip, 0, n / 2);
    const double second = meanOf(timed.stepSkip, n / 2, n);
    const double all = meanOf(timed.stepSkip, 0, n);
    r.extra.push_back({"guard.skip_ratio_coldstart", cold, "ratio"});
    r.extra.push_back({"guard.skip_ratio_warmup_tail", tail, "ratio"});
    r.extra.push_back({"guard.skip_ratio_timed", all, "ratio"});
    r.extra.push_back(
        {"guard.skip_ratio_timed_first_half", first, "ratio"});
    r.extra.push_back(
        {"guard.skip_ratio_timed_second_half", second, "ratio"});
    r.extra.push_back({"guard.step_ms_coldstart",
                       meanOf(warm.stepMs, 0, w / 10), "ms"});
    r.extra.push_back(
        {"guard.step_ms_timed", median(timed.stepMs), "ms"});
    const double tol = spec.skipRelTol * all;
    return all >= spec.skipMin && all <= spec.skipMax &&
           std::fabs(first - all) <= tol &&
           std::fabs(second - all) <= tol && std::fabs(tail - all) <= tol;
}

Report
runSliceWorkload(const Options &opt, bool shaped)
{
    const SliceSpec spec = shaped ? kShaped : kSaturated;
    auto hook = std::make_shared<TraceHook>();
    const SystemConfig cfg = sliceConfig(shaped, opt.seed, hook);
    const std::string ckptPath = opt.work + "/warm.mitts";

    Report r;
    r.params = {{"apps", "mcf,libquantum,omnetpp,astar"},
                {"sched", "FR-FCFS"},
                {"gate", shaped ? "mitts: 10 credits in bin 9" : "none"},
                {"warmup_cycles", std::to_string(spec.warmup)},
                {"timed_cycles", std::to_string(spec.timed)},
                {"step_cycles", std::to_string(spec.slice)}};
    if (opt.trace)
        zeroPerLayer(r);

    // Warm up once per (workload, seed), save the checkpoint every
    // repetition restores, and continue straight through the timed
    // phase: that run's stats dump is the reference digest, so every
    // repetition also checks restore-then-run against the straight
    // path.
    Phase warm, straight;
    double saveMs = 0, ckptBytes = 0;
    std::uint64_t ref = 0;
    {
        System sys(cfg);
        warm = runSlices(sys, spec, spec.warmup, nullptr);
        const std::uint64_t t0 = nowNs();
        sys.saveCheckpoint(ckptPath);
        saveMs = static_cast<double>(nowNs() - t0) * 1e-6;
        ckptBytes = static_cast<double>(fs::file_size(ckptPath));
        straight = runSlices(sys, spec, spec.timed, nullptr);
        ref = statsDigest(sys);
    }
    r.digest = ref;
    r.steady = steadyGuard(r, spec, warm, straight, opt.stepsPath);

    EndToEnd e2e;
    Samples layers, traced;
    Tracer tracer;
    const std::uint64_t loop0 = nowNs();
    for (std::size_t rep = 0; moreReps(rep, loop0, opt); ++rep) {
        std::uint64_t buildNs = 0, restoreNs = 0;
        sampleSetup(e2e.setup, [&] {
            const std::uint64_t t0 = nowNs();
            System sys(cfg);
            const std::uint64_t t1 = nowNs();
            sys.restoreCheckpoint(ckptPath);
            buildNs += t1 - t0;
            restoreNs += nowNs() - t1;
        });
        layers.add("system.build_ms", static_cast<double>(buildNs) *
                                          1e-6 / kSetupsPerSample);
        layers.add("ckpt.restore_ms", static_cast<double>(restoreNs) *
                                          1e-6 / kSetupsPerSample);

        const bool traceRep = opt.trace && rep % 2 == 1;
        if (traceRep)
            tracer.clear();
        hook->tracer = traceRep ? &tracer : nullptr;
        auto sys = std::make_unique<System>(cfg);
        sys->restoreCheckpoint(ckptPath);
        hook->tracer = nullptr;
        std::unique_ptr<Decorations> deco;
        if (traceRep)
            deco = std::make_unique<Decorations>(*sys, tracer);
        const Phase p =
            runSlices(*sys, spec, spec.timed, traceRep ? &tracer : nullptr);
        ++r.attempted;
        if (statsDigest(*sys) != ref)
            ++r.failed;

        if (traceRep) {
            addTracedLayers(traced, tracer, deco->counts());
            traced.add("wall", p.wallS);
            traced.add("self_ns",
                       static_cast<double>(tracer.decoratedSelfNs()));
        } else {
            e2e.wall.push_back(p.wallS);
            e2e.stepMs.insert(e2e.stepMs.end(), p.stepMs.begin(),
                              p.stepMs.end());
            e2e.mips.push_back(p.delta.instr / p.wallS * 1e-6);
            e2e.ipc.push_back(p.delta.ipc());
            p.delta.addLayers(layers);
        }
        sys.reset();
    }

    e2e.finish(r);
    if (opt.trace) {
        layers.foldInto(r);
        r.metrics["ckpt.save_ms"] = saveMs;
        r.metrics["ckpt.bytes"] = ckptBytes;
        finishTraced(r, traced, r.metrics.at("wall_s"),
                     layers.med("sim.executed_cycles"));
        writeTrace(opt, tracer);
    }
    return r;
}

// ---- fig12_sweep: orchestrate::runSweep from cold caches ----------

/**
 * Timestamps the journal appends runSweep makes as each unit
 * completes, from an inotify watch on the output directory — the
 * sweep's per-unit step boundaries, observed from outside.
 */
class JournalWatch
{
  public:
    explicit JournalWatch(const std::string &dir)
        : fd_(inotify_init1(IN_CLOEXEC))
    {
        if (fd_ < 0 || pipe2(stop_, O_CLOEXEC) != 0 ||
            inotify_add_watch(fd_, dir.c_str(), IN_MODIFY) < 0) {
            closeFds();
            throw std::runtime_error("cannot watch " + dir);
        }
        thread_ = std::thread([this] { loop(); });
    }

    ~JournalWatch()
    {
        halt();
        closeFds();
    }

    JournalWatch(const JournalWatch &) = delete;
    JournalWatch &operator=(const JournalWatch &) = delete;

    /** Stop watching; returns one timestamp per journal append. */
    std::vector<std::uint64_t>
    stop()
    {
        if (!halt())
            throw std::runtime_error("cannot stop journal watch");
        return stamps_;
    }

  private:
    void
    loop()
    {
        alignas(inotify_event) char buf[4096];
        for (;;) {
            pollfd fds[2] = {{fd_, POLLIN, 0}, {stop_[0], POLLIN, 0}};
            if (::poll(fds, 2, -1) < 0)
                return;
            if (fds[0].revents & POLLIN) {
                const std::uint64_t now = nowNs();
                const ssize_t n = ::read(fd_, buf, sizeof(buf));
                for (ssize_t off = 0; off < n;) {
                    const auto *ev =
                        reinterpret_cast<const inotify_event *>(buf + off);
                    if (ev->len &&
                        std::strcmp(ev->name, "journal.log") == 0)
                        stamps_.push_back(now);
                    off += static_cast<ssize_t>(sizeof(inotify_event) +
                                                ev->len);
                }
                continue;
            }
            if (fds[1].revents & POLLIN)
                return;
        }
    }

    /** Wake the watcher and join it; false if it could not be
     *  woken (it is then left running and the process must exit). */
    bool
    halt()
    {
        if (!thread_.joinable())
            return true;
        const char c = 'x';
        ssize_t n = 0;
        while ((n = ::write(stop_[1], &c, 1)) < 0 && errno == EINTR) {
        }
        if (n != 1)
            return false;
        thread_.join();
        return true;
    }

    void
    closeFds()
    {
        for (const int fd : {fd_, stop_[0], stop_[1]}) {
            if (fd >= 0)
                ::close(fd);
        }
    }

    int fd_;
    int stop_[2] = {-1, -1};
    std::vector<std::uint64_t> stamps_;
    std::thread thread_;
};

orchestrate::SweepSpec
fig12Spec(const Options &opt)
{
    auto spec =
        orchestrate::parseSweepFile(opt.root + "/sweeps/fig12.sweep");
    spec.seedAxis = {opt.seed, opt.seed + 1, opt.seed + 2};
    orchestrate::validateSweep(spec);
    return spec;
}

/** One unit record of results.txt, parsed. */
struct UnitRecord
{
    std::string text;
    std::vector<double> shared; ///< per-app shared-run cycles
    double savg = 0, smax = 0;
};

std::vector<UnitRecord>
parseResults(const std::string &results)
{
    std::vector<UnitRecord> recs;
    std::size_t pos = 0;
    while (pos < results.size()) {
        std::size_t end = results.find("\n\n", pos);
        if (end == std::string::npos)
            end = results.size();
        UnitRecord rec;
        rec.text = results.substr(pos, end - pos + 1);
        std::istringstream in(rec.text);
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("app ", 0) == 0) {
                const auto at = line.find(" shared=");
                if (at != std::string::npos)
                    rec.shared.push_back(std::stod(line.substr(at + 8)));
            } else if (line.rfind("metrics ", 0) == 0) {
                std::sscanf(line.c_str(), "metrics savg=%lf smax=%lf",
                            &rec.savg, &rec.smax);
            }
        }
        recs.push_back(std::move(rec));
        pos = end + 2;
    }
    return recs;
}

struct SweepRun
{
    double wallS = 0;
    orchestrate::OrchestratorCounters counters;
    std::vector<double> unitMs;
    std::string outputs; ///< results.txt + summary.json
};

SweepRun
runSweepOnce(const orchestrate::SweepSpec &spec,
             const std::string &cache, const std::string &out)
{
    fs::create_directories(out);
    orchestrate::OrchestratorOptions o;
    o.workers = 0;
    o.cacheDir = cache;
    o.outDir = out;
    SweepRun run;
    JournalWatch watch(out);
    const std::uint64_t t0 = nowNs();
    run.counters = orchestrate::runSweep(spec, o);
    run.wallS = secondsSince(t0);
    std::uint64_t prev = t0;
    for (const std::uint64_t s : watch.stop()) {
        run.unitMs.push_back(static_cast<double>(s - prev) * 1e-6);
        prev = s;
    }
    run.outputs = readFile(out + "/results.txt") +
                  readFile(out + "/summary.json");
    return run;
}

/**
 * Cross-path check: the sweep's records for the FR-FCFS units (one
 * per seed; the sched axis is outermost) must match a direct
 * aloneCyclesForAll + runMulti of the same unit configuration.
 * Returns the number of units that differ.
 */
std::uint64_t
crossCheckUnits(const orchestrate::SweepSpec &spec,
                const std::vector<UnitRecord> &recs)
{
    std::uint64_t bad = 0;
    for (std::uint64_t i = 0; i < spec.seedAxis.size(); ++i) {
        const auto unit = orchestrate::unitAt(spec, i);
        const SystemConfig cfg = orchestrate::unitConfig(spec, unit);
        const RunnerOptions ro{unit.instr, spec.maxCycles};
        const auto alone = aloneCyclesForAll(cfg, ro);
        const MultiOutcome out = runMulti(cfg, alone, ro);
        bool same = i < recs.size();
        for (std::size_t a = 0; same && a < out.results.size(); ++a) {
            const std::string want =
                "app " + out.results[a].name +
                " alone=" + std::to_string(alone[a]) +
                " shared=" + std::to_string(out.results[a].completedAt) +
                " completed=" + (out.results[a].completed ? "1" : "0");
            same = recs[i].text.find(want) != std::string::npos;
        }
        bad += !same;
    }
    return bad;
}

/** Spec parse and expansion plus one System build per unit: the
 *  set-up every sweep pays. Adds the System builds' share to
 *  `buildNs`. */
void
sweepSetup(const Options &opt, std::uint64_t &buildNs)
{
    const orchestrate::SweepSpec spec = fig12Spec(opt);
    for (std::uint64_t i = 0; i < orchestrate::unitCount(spec); ++i) {
        const auto unit = orchestrate::unitAt(spec, i);
        const SystemConfig cfg = orchestrate::unitConfig(spec, unit);
        (void)orchestrate::unitCacheKey(spec, unit);
        const std::uint64_t t0 = nowNs();
        System sys(cfg);
        buildNs += nowNs() - t0;
    }
}

/**
 * Replay every unit's shared run in a System of the unit's config,
 * decorated when `t` is set, and check each app's completion cycle
 * against the sweep's record. Layer samples go to `s` only when
 * decorated. Returns the replay's wall seconds.
 */
double
replayUnits(const orchestrate::SweepSpec &spec,
            const std::vector<UnitRecord> &recs, Tracer *t,
            Report &r, Samples &s)
{
    auto hook = std::make_shared<TraceHook>();
    hook->tracer = t;
    DecoratorCounts total;
    ModelCounters model;
    const std::uint64_t t0 = nowNs();
    const std::uint64_t n = orchestrate::unitCount(spec);
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto unit = orchestrate::unitAt(spec, i);
        SystemConfig cfg = orchestrate::unitConfig(spec, unit);
        installTraceFactory(cfg, hook);
        auto sys = std::make_unique<System>(cfg);
        std::unique_ptr<Decorations> deco;
        if (t) {
            deco = std::make_unique<Decorations>(*sys, *t);
            t->beginStep(i);
        }
        const auto res = sys->runUntilInstructions(unit.instr,
                                                   spec.maxCycles);
        if (t)
            t->endStep();
        ++r.attempted;
        bool same = i < recs.size() &&
                    recs[i].shared.size() == res.size();
        for (std::size_t a = 0; same && a < res.size(); ++a)
            same = recs[i].shared[a] ==
                   static_cast<double>(res[a].completedAt);
        r.failed += !same;
        model.add(*sys);
        if (deco)
            total += deco->counts();
        sys.reset();
    }
    const double wall = secondsSince(t0);
    if (t) {
        addTracedLayers(s, *t, total);
        model.addLayers(s);
        s.add("wall", wall);
        s.add("self_ns", static_cast<double>(t->decoratedSelfNs()));
    }
    return wall;
}

Report
runSweepWorkload(const Options &opt)
{
    EndToEnd e2e;
    Samples layers, traced;
    const auto setUp = [&] {
        std::uint64_t buildNs = 0;
        sampleSetup(e2e.setup, [&] { sweepSetup(opt, buildNs); });
        layers.add("system.build_ms", static_cast<double>(buildNs) *
                                          1e-6 / kSetupsPerSample);
    };
    const orchestrate::SweepSpec spec = fig12Spec(opt);
    const std::uint64_t n = orchestrate::unitCount(spec);
    const double instrPerSweep = static_cast<double>(spec.instr) *
        static_cast<double>(n * orchestrate::specNumCores(spec) +
                            spec.seedAxis.size() * spec.apps.size());

    Report r;
    r.params = {{"sweep", "sweeps/fig12.sweep"},
                {"seed_axis", std::to_string(spec.seedAxis.front()) +
                                  ".." +
                                  std::to_string(spec.seedAxis.back())},
                {"units", std::to_string(n)},
                {"workers", "0"}};
    if (opt.trace)
        zeroPerLayer(r);

    std::vector<UnitRecord> recs;
    std::uint64_t ref = 0;
    auto checkedSweep = [&](std::size_t rep) {
        const std::string dir = opt.work + "/rep" + std::to_string(rep);
        fs::remove_all(dir);
        SweepRun run = runSweepOnce(spec, dir + "/cache", dir + "/out");
        const std::uint64_t digest = fnv1a(run.outputs);
        r.attempted += n + 1;
        r.failed += run.counters.retried +
                    (n - std::min(n, run.counters.dispatched));
        if (rep == 0) {
            ref = r.digest = digest;
            recs = parseResults(readFile(dir + "/out/results.txt"));
            r.attempted += spec.seedAxis.size();
            r.failed += crossCheckUnits(spec, recs);
        } else if (digest != ref) {
            ++r.failed;
        }
        return run;
    };

    const std::uint64_t loop0 = nowNs();
    if (!opt.trace) {
        for (std::size_t rep = 0; moreReps(rep, loop0, opt); ++rep) {
            setUp();
            const SweepRun run = checkedSweep(rep);
            fs::remove_all(opt.work + "/rep" + std::to_string(rep));
            e2e.wall.push_back(run.wallS);
            e2e.stepMs.insert(e2e.stepMs.end(), run.unitMs.begin(),
                              run.unitMs.end());
            e2e.mips.push_back(instrPerSweep / run.wallS * 1e-6);
        }
    } else {
        // Traced mode: one cold sweep and a warm rerun on its cache
        // give the orchestrate layer; the simulation layers come from
        // replaying every unit's shared run with and without the
        // decorators, alternately.
        setUp();
        const SweepRun cold = checkedSweep(0);
        const std::string dir = opt.work + "/rep0";
        const std::uint64_t t0 = nowNs();
        const SweepRun warm =
            runSweepOnce(spec, dir + "/cache", dir + "/warm");
        const double warmMs = secondsSince(t0) * 1e3;
        ++r.attempted;
        r.failed += fnv1a(warm.outputs) != ref;
        layers.foldInto(r);
        r.metrics["orchestrate.unit_ms_p50"] = median(cold.unitMs);
        r.metrics["orchestrate.warm_rerun_ms"] = warmMs;
        r.metrics["orchestrate.cache_hit_ratio"] =
            ratio(static_cast<double>(warm.counters.cached),
                  static_cast<double>(warm.counters.totalUnits));
        Tracer tracer;
        std::vector<double> plain;
        for (std::size_t rep = 0; moreReps(rep, loop0, opt); ++rep) {
            if (rep % 2) {
                tracer.clear();
                replayUnits(spec, recs, &tracer, r, traced);
            } else {
                plain.push_back(replayUnits(spec, recs, nullptr, r,
                                            traced));
            }
        }
        finishTraced(r, traced, meanOf(plain, 0, plain.size()),
                     traced.med("sim.executed_cycles"));
        writeTrace(opt, tracer);
    }

    // Model outputs of the sweep: mean summed IPC at completion and
    // the paper's slowdown metrics, averaged over units.
    std::vector<double> ipc, savg, smax;
    for (const UnitRecord &rec : recs) {
        double sum = 0;
        for (const double cyc : rec.shared)
            sum += ratio(static_cast<double>(spec.instr), cyc);
        ipc.push_back(sum);
        savg.push_back(rec.savg);
        smax.push_back(rec.smax);
    }
    const double meanIpc = meanOf(ipc, 0, ipc.size());
    e2e.ipc.push_back(meanIpc);
    e2e.finish(r);
    r.extra.push_back({"savg", meanOf(savg, 0, savg.size()), "x"});
    r.extra.push_back({"smax", meanOf(smax, 0, smax.size()), "x"});
    return r;
}

// ---- cloud_diurnal: the cloud scenario engine ---------------------

/** Scenario seeds n, n+1, ... per timed phase: one seed's tenant
 *  population sets how much work its scenario is, so a single seed
 *  per run would make wall_s follow the seed more than the code. */
constexpr std::uint64_t kCloudSeeds = 2;

Report
runCloudWorkload(const Options &opt)
{
    std::vector<cloud::ScenarioConfig> scs;
    for (std::uint64_t k = 0; k < kCloudSeeds; ++k) {
        cloud::ScenarioConfig sc = cloud::parseScenarioFile(
            opt.root + "/scenarios/diurnal200.scn");
        sc.seed = opt.seed + k;
        cloud::validateScenario(sc);
        scs.push_back(sc);
    }
    const cloud::ScenarioConfig &sc0 = scs.front();

    Report r;
    r.params = {{"scenario", "scenarios/diurnal200.scn"},
                {"scenario_seeds", std::to_string(scs.front().seed) +
                                       ".." +
                                       std::to_string(scs.back().seed)},
                {"sockets", std::to_string(sc0.sockets)},
                {"cores_per_socket", std::to_string(sc0.coresPerSocket)},
                {"windows",
                 std::to_string(sc0.durationCycles / sc0.windowCycles)}};
    if (opt.trace)
        zeroPerLayer(r);

    EndToEnd e2e;
    Samples layers, traced;
    Tracer tracer;
    std::vector<std::uint64_t> refs(scs.size());
    double violations = 0, tenantWindows = 0;
    const std::uint64_t loop0 = nowNs();
    for (std::size_t rep = 0; moreReps(rep, loop0, opt); ++rep) {
        sampleSetup(e2e.setup, [&] {
            for (const auto &sc : scs)
                cloud::CloudEngine engine(sc);
        });
        layers.add("system.build_ms", e2e.setup.back() * 1e3);
        const bool traceRep = opt.trace && rep % 2 == 1;
        if (traceRep)
            tracer.clear();

        // Step each scenario window by window; the timed phase is the
        // stepping of all of them, without their engines' builds.
        std::vector<double> stepMs;
        double wall = 0, admitted = 0, tenants = 0;
        ModelCounters model;
        DecoratorCounts total;
        violations = tenantWindows = 0;
        std::uint64_t i = 0;
        for (std::size_t k = 0; k < scs.size(); ++k) {
            const cloud::ScenarioConfig &sc = scs[k];
            auto engine = std::make_unique<cloud::CloudEngine>(sc);
            std::vector<std::unique_ptr<Decorations>> decos;
            if (traceRep) {
                for (unsigned si = 0; si < engine->numSockets(); ++si)
                    decos.push_back(std::make_unique<Decorations>(
                        engine->socketSystem(si), tracer));
            }
            const std::uint64_t w0 = nowNs();
            for (Tick t = sc.windowCycles; t <= sc.durationCycles;
                 t += sc.windowCycles, ++i) {
                const std::uint64_t s0 = nowNs();
                if (traceRep)
                    tracer.beginStep(i);
                engine->runUntil(t);
                if (traceRep)
                    tracer.endStep();
                stepMs.push_back(static_cast<double>(nowNs() - s0) *
                                 1e-6);
            }
            wall += secondsSince(w0);

            std::ostringstream out;
            engine->writeBillingCsv(out);
            engine->writeSummary(out);
            engine->dumpStats(out);
            const std::uint64_t digest = fnv1a(out.str());
            ++r.attempted;
            if (rep == 0)
                refs[k] = digest;
            else if (digest != refs[k])
                ++r.failed;

            for (unsigned si = 0; si < engine->numSockets(); ++si)
                model.add(engine->socketSystem(si));
            for (const auto &rec : engine->records()) {
                admitted += rec.admitted;
                tenantWindows += static_cast<double>(rec.windows);
                violations += static_cast<double>(
                    rec.latencyViolations + rec.bandwidthViolations);
            }
            tenants += static_cast<double>(engine->records().size());
            for (const auto &d : decos)
                total += d->counts();
        }

        if (traceRep) {
            addTracedLayers(traced, tracer, total);
            traced.add("wall", wall);
            traced.add("self_ns",
                       static_cast<double>(tracer.decoratedSelfNs()));
        } else {
            e2e.wall.push_back(wall);
            e2e.stepMs.insert(e2e.stepMs.end(), stepMs.begin(),
                              stepMs.end());
            e2e.mips.push_back(model.instr / wall * 1e-6);
            e2e.ipc.push_back(model.ipc());
            model.addLayers(layers);
            layers.add("cloud.tenants_admitted", admitted);
            layers.add("cloud.admit_ratio", ratio(admitted, tenants));
            layers.add("cloud.tenant_windows", tenantWindows);
        }
    }

    r.digest = fnv1a(std::string(
        reinterpret_cast<const char *>(refs.data()),
        refs.size() * sizeof(refs[0])));
    e2e.finish(r);
    r.extra.push_back({"sla_violation_rate",
                       ratio(violations, tenantWindows), "ratio"});
    if (opt.trace) {
        layers.foldInto(r);
        finishTraced(r, traced, r.metrics.at("wall_s"),
                     layers.med("sim.executed_cycles"));
        writeTrace(opt, tracer);
    }
    return r;
}

} // namespace

Report
runWorkload(const Options &opt)
{
    Report r;
    if (opt.workload == "saturated")
        r = runSliceWorkload(opt, false);
    else if (opt.workload == "shaped")
        r = runSliceWorkload(opt, true);
    else if (opt.workload == "fig12_sweep")
        r = runSweepWorkload(opt);
    else if (opt.workload == "cloud_diurnal")
        r = runCloudWorkload(opt);
    else
        throw std::invalid_argument("unknown workload: " + opt.workload);
    r.extra.push_back({"error_rate",
                       ratio(static_cast<double>(r.failed),
                             static_cast<double>(r.attempted)),
                       "ratio"});
    return r;
}

} // namespace perfbench
