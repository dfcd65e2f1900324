/**
 * @file
 * Quiescence-aware simulation driver.
 *
 * The kernel executes cycles (event drain + all component ticks) and,
 * between executed cycles, fast-forwards across globally idle gaps:
 * the next cycle to execute is the minimum of the earliest pending
 * event and every component's self-reported nextWakeTick(). Wake
 * claims are batched — components that opt in (Clocked::
 * wakeClaimCacheable) register claims in a bucket wheel
 * (sim/wake_wheel.hh) and are re-polled only when dirty, so the
 * saturated path pays O(changed claims) per executed cycle; the
 * always-poll reference path remains the MITTS_SIM_VERIFY_SKIP
 * oracle. Skipped regions are provably no-op-or-linear: components
 * whose idle cycles accrue per-cycle counters replicate them via
 * onFastForward(), so skip-ahead on vs off is bit-identical (stats
 * dumps, telemetry CSVs, trace-event JSON). See DESIGN.md
 * "Simulation kernel".
 */

#ifndef MITTS_SIM_SIMULATION_HH
#define MITTS_SIM_SIMULATION_HH

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/wake_wheel.hh"

namespace mitts
{

/** Kernel knobs (SystemConfig::sim; mitts_sim --no-skip). */
struct SimulationConfig
{
    /** Fast-forward across globally quiescent gaps. Off = execute
     *  every cycle (the A/B reference mode). Also forced off by the
     *  MITTS_SIM_NO_SKIP environment variable. */
    bool skipAhead = true;
    /** Paranoia mode: instead of skipping, execute claimed-quiescent
     *  regions cycle by cycle while asserting every component's wake
     *  claim still holds. Also enabled by MITTS_SIM_VERIFY_SKIP=1. */
    bool verifySkip = false;
};

/**
 * Owns simulated time. Components are registered (not owned) in tick
 * order; stats groups are registered for dumping. The driver alternates
 * event-queue drain and component ticks each executed cycle and skips
 * whole cycles only — an executed cycle always ticks every component,
 * so cross-component interaction ordering is identical in both modes.
 */
class Simulation
{
  public:
    Simulation() : Simulation(SimulationConfig{}) {}

    explicit Simulation(const SimulationConfig &cfg) : cfg_(cfg)
    {
        if (envFlag("MITTS_SIM_NO_SKIP"))
            cfg_.skipAhead = false;
        if (envFlag("MITTS_SIM_VERIFY_SKIP"))
            cfg_.verifySkip = true;
    }

    /** Register a component; ticked in registration order. */
    void
    add(Clocked *c)
    {
        components_.push_back(c);
        if (c->wakeClaimCacheable()) {
            cached_.push_back(
                {c, static_cast<std::size_t>(wheel_.addSlot())});
        } else {
            polled_.push_back(c);
        }
    }

    /** Register a stats group for dumpStats(). */
    void addStats(stats::Group *g) { statGroups_.push_back(g); }

    /** Current cycle (the cycle being executed during a tick). */
    Tick now() const { return now_; }

    /** Delayed-event queue shared by all components. */
    EventQueue &events() { return events_; }

    bool skipAhead() const { return cfg_.skipAhead; }
    void setSkipAhead(bool on) { cfg_.skipAhead = on; }

    /** Whole-cycle gaps fast-forwarded so far (introspection). */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }

    /**
     * Checkpoint the kernel's own state. The event queue is handled
     * separately by the System, which dispatches its events.
     * cyclesSkipped_ is introspection-only and deliberately not part
     * of the bit-identity contract (skip and no-skip runs differ in
     * it by construction), but round-tripping it keeps a resumed run's
     * diagnostics meaningful.
     */
    void
    saveState(ckpt::Writer &w) const
    {
        w.u64(now_);
        w.u64(cyclesSkipped_);
    }

    void
    loadState(ckpt::Reader &r)
    {
        now_ = r.u64();
        cyclesSkipped_ = r.u64();
        // Cached wake claims predate the restored state: drop the
        // wheel (handles the time jump) and force a re-poll of every
        // cacheable component, independent of whether its own
        // loadState remembered to mark itself dirty.
        wheel_.reset();
        for (const auto &[c, slot] : cached_)
            c->markWakeDirty();
    }

    /** Run for `cycles` more cycles. */
    void
    run(Tick cycles)
    {
        const Tick end = now_ + cycles;
        while (now_ < end)
            stepAndSkip(end);
    }

    /**
     * Run until `done()` returns true or `maxCycles` elapse.
     *
     * Due events are drained before each predicate evaluation, so a
     * predicate reading event-updated state (e.g. load completions
     * landed on a freshly fast-forwarded cycle) never observes a stale
     * pre-drain snapshot. Predicates must be functions of simulation
     * state (counters, component phases) — state is frozen across
     * skipped cycles, so a predicate comparing `now()` against a raw
     * tick threshold may be first observed past that threshold.
     *
     * @return true when the predicate fired (not the cycle limit).
     */
    bool
    runUntil(const std::function<bool()> &done, Tick max_cycles)
    {
        const Tick end = now_ + max_cycles;
        while (now_ < end) {
            events_.runDue(now_);
            if (done())
                return true;
            stepAndSkip(end);
        }
        return done();
    }

    /** Execute exactly one cycle (never skips). */
    void
    step()
    {
        events_.runDue(now_);
        for (auto *c : components_)
            c->tick(now_);
        ++now_;
    }

    /**
     * Global next-wake for the current state: the earliest cycle
     * >= now() that cannot be skipped — min of the earliest pending
     * event and every component's nextWakeTick(), clamped to now().
     * Meaningful once at least one cycle has executed.
     *
     * This is the reference implementation: it re-polls every
     * component unconditionally. The run loop uses the batched
     * variant below; under MITTS_SIM_VERIFY_SKIP the two are
     * cross-checked after every executed cycle.
     */
    Tick
    globalNextWake() const
    {
        MITTS_ASSERT(now_ > 0,
                     "globalNextWake needs an executed cycle");
        const Tick executed = now_ - 1;
        Tick wake = events_.nextEventTick();
        for (const auto *c : components_)
            wake = std::min(wake, c->nextWakeTick(executed));
        return std::max(wake, now_);
    }

    void
    dumpStats(std::ostream &os) const
    {
        for (const auto *g : statGroups_)
            g->dump(os);
    }

    void
    resetStats()
    {
        for (auto *g : statGroups_)
            g->reset();
    }

  private:
    static bool
    envFlag(const char *name)
    {
        const char *v = std::getenv(name);
        return v && *v && !(v[0] == '0' && v[1] == '\0');
    }

    /**
     * Batched-claim next-wake (the hot-path variant of
     * globalNextWake). Always-polled components are queried first
     * with an early exit — in a saturated system some component
     * claims the very next cycle, and the reduction stops before
     * touching anything expensive. Cacheable components are
     * re-polled only when dirty or when their registered claim has
     * fired (claim <= now); all other claims are answered by the
     * wake wheel's hierarchical min without a single virtual call.
     *
     * A cached claim used here is exactly what a fresh poll would
     * return: opted-in components promise their claim is a function
     * of component state (unchanged, else dirty) plus a
     * max(..., now+1) floor, and any claim at or below that floor is
     * re-polled. Under MITTS_SIM_VERIFY_SKIP the equality is
     * asserted against the polling oracle after every executed
     * cycle.
     */
    Tick
    batchedNextWake()
    {
        const Tick executed = now_ - 1;
        Tick wake = events_.nextEventTick();
        for (const auto *c : polled_) {
            wake = std::min(wake, c->nextWakeTick(executed));
            if (wake <= now_)
                return now_; // awake next cycle; claims stay dirty
        }
        for (const auto &[c, slot] : cached_) {
            if (c->wakeClaimDirty() || wheel_.claim(slot) <= now_) {
                const Tick claim = c->nextWakeTick(executed);
                wheel_.set(slot, claim);
                c->clearWakeDirty();
                // A fresh claim of exactly now_ sits below the
                // wheel query floor below; fold it in directly.
                wake = std::min(wake, claim);
            }
        }
        wake = std::min(wake, wheel_.earliest(now_ + 1));
        return std::max(wake, now_);
    }

    /**
     * Execute one cycle, then — bounded by `limit` — fast-forward to
     * the global next wake if it lies beyond the next cycle.
     */
    void
    stepAndSkip(Tick limit)
    {
        step();
        if (!cfg_.skipAhead || now_ >= limit)
            return;
        Tick wake = batchedNextWake();
        if (cfg_.verifySkip) {
            const Tick fresh = globalNextWake();
            MITTS_ASSERT(wake == fresh,
                         "batched wake claim diverged from polling "
                         "oracle: cached ", wake, " vs fresh ",
                         fresh, " at cycle ", now_);
        }
        if (wake <= now_)
            return;
        wake = std::min(wake, limit);
        if (cfg_.verifySkip) {
            verifyQuiescent(wake);
            return;
        }
        for (auto *c : components_)
            c->onFastForward(now_, wake);
        cyclesSkipped_ += wake - now_;
        now_ = wake;
    }

    /**
     * MITTS_SIM_VERIFY_SKIP: execute the claimed-quiescent region
     * [now_, wake) cycle by cycle, re-asserting before every cycle
     * that no component or event claims work inside it. Per-cycle
     * counters accrue naturally (onFastForward is not applied), so
     * outputs match the no-skip kernel while wake-claim honesty —
     * the "never under-report" rule — is checked exhaustively.
     */
    void
    verifyQuiescent(Tick wake)
    {
        while (now_ < wake) {
            MITTS_ASSERT(events_.nextEventTick() >= wake,
                         "event due inside skipped region [", now_,
                         ", ", wake, ")");
            for (const auto *c : components_) {
                MITTS_ASSERT(c->nextWakeTick(now_ - 1) >= wake,
                             "component '", c->name(),
                             "' under-reported its wake: claims ",
                             c->nextWakeTick(now_ - 1),
                             " inside skipped region [", now_, ", ",
                             wake, ")");
            }
            step();
        }
    }

    /** A cacheable component and its wake-wheel slot. */
    struct CachedClaim
    {
        Clocked *component;
        std::size_t slot;
    };

    // detlint-transient(construction-time config; never mutated after build)
    SimulationConfig cfg_;
    Tick now_ = 0;
    std::uint64_t cyclesSkipped_ = 0;
    std::vector<Clocked *> components_;
    std::vector<Clocked *> polled_;    ///< re-polled every cycle
    // detlint-transient(component wiring registered at construction)
    std::vector<CachedClaim> cached_;  ///< claims live in the wheel
    // detlint-transient(derived claim cache; reset and re-polled on load)
    WakeWheel wheel_;
    std::vector<stats::Group *> statGroups_;
    // detlint-transient(checkpointed by the System, which dispatches its events)
    EventQueue events_;
};

} // namespace mitts

#endif // MITTS_SIM_SIMULATION_HH
