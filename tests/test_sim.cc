/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, the
 * cycle-stepped driver, and quiescence-aware skip-ahead.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "system/system.hh"
#include "telemetry/sampler.hh"

namespace mitts
{
namespace
{

/** Records every dispatched event; `onDispatch` (if set) runs inside
 *  the dispatch, e.g. to schedule from a handler. */
struct Recorder : EventDispatcher
{
    void
    dispatch(const EventDesc &ev, Tick when) override
    {
        fired.push_back(ev.seq);
        whens.push_back(when);
        if (onDispatch)
            onDispatch(ev);
    }

    std::vector<SeqNum> fired;
    std::vector<Tick> whens;
    std::function<void(const EventDesc &)> onDispatch;
};

EventDesc
ev(SeqNum id)
{
    return EventDesc::loadComplete(0, id);
}

/** The queue accepts descriptors only: a closure cannot be scheduled,
 *  so every pending event is checkpointable by construction. */
template <typename T>
concept Schedulable = requires(EventQueue &q, T t) {
    q.schedule(Tick{0}, t);
};
static_assert(Schedulable<EventDesc>);
static_assert(!Schedulable<std::function<void()>>);

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    q.schedule(10, ev(10));
    q.schedule(5, ev(5));
    q.schedule(7, ev(7));
    q.runDue(10);
    EXPECT_EQ(rec.fired, (std::vector<SeqNum>{5, 7, 10}));
    EXPECT_EQ(rec.whens, (std::vector<Tick>{5, 7, 10}));
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    for (SeqNum i = 0; i < 5; ++i)
        q.schedule(3, ev(i));
    q.runDue(3);
    EXPECT_EQ(rec.fired, (std::vector<SeqNum>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, DoesNotFireEarly)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    q.schedule(100, ev(1));
    q.runDue(99);
    EXPECT_TRUE(rec.fired.empty());
    EXPECT_EQ(q.nextEventTick(), 100u);
    q.runDue(100);
    EXPECT_EQ(rec.fired.size(), 1u);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    // Under runDue(5) the drain horizon is 5, the earliest tick a
    // handler may schedule for.
    rec.onDispatch = [&](const EventDesc &e) {
        if (e.seq == 1)
            q.schedule(5, ev(2));
    };
    q.schedule(1, ev(1));
    q.runDue(5);
    EXPECT_EQ(rec.fired, (std::vector<SeqNum>{1, 2}));
    EXPECT_EQ(rec.whens, (std::vector<Tick>{1, 5}));
}

class TickCounter : public Clocked
{
  public:
    TickCounter() : Clocked("tc") {}
    void tick(Tick now) override { ticks.push_back(now); }
    std::vector<Tick> ticks;
};

TEST(Simulation, RunsComponentsEachCycle)
{
    Simulation sim;
    TickCounter c;
    sim.add(&c);
    sim.run(5);
    ASSERT_EQ(c.ticks.size(), 5u);
    for (Tick i = 0; i < 5; ++i)
        EXPECT_EQ(c.ticks[i], i);
    EXPECT_EQ(sim.now(), 5u);
}

TEST(Simulation, RunUntilPredicate)
{
    Simulation sim;
    TickCounter c;
    sim.add(&c);
    const bool hit =
        sim.runUntil([&] { return c.ticks.size() >= 10; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(c.ticks.size(), 10u);
}

TEST(Simulation, RunUntilRespectsCap)
{
    Simulation sim;
    TickCounter c;
    sim.add(&c);
    const bool hit = sim.runUntil([] { return false; }, 50);
    EXPECT_FALSE(hit);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulation, EventsRunBeforeComponentsInACycle)
{
    Simulation sim;
    std::vector<std::string> order;

    class Obs : public Clocked
    {
      public:
        explicit Obs(std::vector<std::string> &o)
            : Clocked("obs"), order_(o)
        {
        }
        void tick(Tick) override { order_.push_back("comp"); }

      private:
        std::vector<std::string> &order_;
    };

    Obs obs(order);
    sim.add(&obs);
    Recorder rec;
    rec.onDispatch = [&](const EventDesc &) { order.push_back("event"); };
    sim.events().setDispatcher(&rec);
    sim.events().schedule(0, ev(1));
    sim.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "event");
    EXPECT_EQ(order[1], "comp");
}

// ---- EventQueue scheduling semantics ------------------------------

TEST(EventQueue, SameTickScheduleInsideDrainFiresInSameDrain)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    rec.onDispatch = [&](const EventDesc &e) {
        if (e.seq == 1)
            q.schedule(3, ev(2));
    };
    q.schedule(3, ev(1));
    q.runDue(3);
    EXPECT_EQ(rec.fired, (std::vector<SeqNum>{1, 2}));
    EXPECT_EQ(rec.whens, (std::vector<Tick>{3, 3}));
}

#ifdef NDEBUG
TEST(EventQueue, PastScheduleClampsToDrainHorizon)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    q.runDue(10);
    q.schedule(5, ev(1));
    // Clamped up to the horizon instead of being lost below it.
    EXPECT_EQ(q.nextEventTick(), 10u);
    q.runDue(10);
    EXPECT_EQ(rec.fired.size(), 1u);
}
#else
TEST(EventQueueDeathTest, PastSchedulePanicsInDebug)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            q.runDue(10);
            q.schedule(5, ev(1));
        },
        "scheduled in the past");
}
#endif

TEST(EventQueue, RingWindowEdgeGoesToFarHeap)
{
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    q.runDue(10);
    q.schedule(10 + EventQueue::kRing, ev(2)); // first far tick
    q.schedule(10 + EventQueue::kRing - 1, ev(1)); // last ring tick
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextEventTick(), 10 + EventQueue::kRing - 1);
    q.runDue(10 + EventQueue::kRing);
    EXPECT_EQ(rec.fired, (std::vector<SeqNum>{1, 2}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), kTickNever);
}

TEST(EventQueue, FarEventFiresBeforeLaterRingEventOfSameTick)
{
    // Tick 100 is beyond the ring when the first event is scheduled
    // and inside it when the second is: the far-heap event was
    // scheduled first, so it must fire first.
    EventQueue q;
    Recorder rec;
    q.setDispatcher(&rec);
    q.schedule(100, ev(1));
    q.runDue(50);
    q.schedule(100, ev(2));
    q.schedule(99, ev(3));
    q.runDue(100);
    EXPECT_EQ(rec.fired, (std::vector<SeqNum>{3, 1, 2}));
}

/**
 * The queue's drain order against a sorted (when, seq) reference: a
 * seeded random stream schedules events 0..3*kRing ticks ahead (same
 * tick included), handlers schedule follow-ups from inside the drain
 * (same tick included), the clock mostly steps by a few ticks but
 * sometimes jumps an idle gap of several rings, and halfway through
 * the queue is saved and restored into a fresh one. Each side numbers
 * its own follow-ups, so a divergence shows up in the drain records.
 */
class DifferentialDriver : public EventDispatcher
{
  public:
    explicit DifferentialDriver(std::uint64_t seed) : rng_(seed) {}

    void
    run(unsigned steps)
    {
        EventQueue first;
        q_ = &first;
        q_->setDispatcher(this);
        EventQueue restored;
        for (unsigned step = 0; step < steps; ++step) {
            if (step == steps / 2) {
                ckpt::Writer w;
                w.beginSection("events");
                q_->saveState(w);
                w.endSection();
                ckpt::Reader r(w.finish(0), 0);
                r.beginSection("events");
                restored.loadState(r, [](const EventDesc &) {});
                r.endSection();
                ASSERT_EQ(restored.size(), q_->size());
                q_ = &restored;
                q_->setDispatcher(this);
            }
            const std::uint64_t n = rng_.below(4);
            for (std::uint64_t i = 0; i < n; ++i) {
                const Tick when =
                    now_ + rng_.below(3 * EventQueue::kRing + 1);
                const SeqNum id = nextId_++;
                q_->schedule(when, EventDesc::loadComplete(0, id));
                ref_.emplace(when, refSeq_++, id);
            }
            ASSERT_EQ(q_->nextEventTick(), refNext()) << "step " << step;
            now_ += rng_.below(8) == 0 ? 100 + rng_.below(400)
                                       : rng_.below(4);
            q_->runDue(now_);
            refRunDue();
            ASSERT_EQ(got_, want_) << "step " << step;
        }
        EXPECT_GT(got_.size(), steps);
    }

    void
    dispatch(const EventDesc &e, Tick when) override
    {
        got_.emplace_back(e.seq, when);
        Tick delta = 0;
        if (spawns(e.seq, delta))
            q_->schedule(now_ + delta,
                         EventDesc::loadComplete(0, kChild + qChildren_++));
    }

  private:
    static constexpr SeqNum kChild = SeqNum{1} << 40;

    /** Whether firing `id` schedules a follow-up, and how far ahead
     *  (0 = the current tick). A pure function of the id. */
    static bool
    spawns(SeqNum id, Tick &delta)
    {
        const std::uint64_t h = id * 0x9E3779B97F4A7C15ULL;
        delta = (h >> 20) % 4 == 0 ? 0 : (h >> 24) % (2 * EventQueue::kRing);
        return (h >> 40) % 3 == 0;
    }

    Tick
    refNext() const
    {
        return ref_.empty() ? kTickNever : std::get<0>(*ref_.begin());
    }

    void
    refRunDue()
    {
        while (!ref_.empty() && std::get<0>(*ref_.begin()) <= now_) {
            const auto [when, seq, id] = *ref_.begin();
            ref_.erase(ref_.begin());
            want_.emplace_back(id, when);
            Tick delta = 0;
            if (spawns(id, delta))
                ref_.emplace(now_ + delta, refSeq_++,
                             kChild + refChildren_++);
        }
    }

    Random rng_;
    EventQueue *q_ = nullptr;
    Tick now_ = 0;
    SeqNum nextId_ = 0;
    SeqNum qChildren_ = 0;
    SeqNum refChildren_ = 0;
    std::uint64_t refSeq_ = 0;
    std::set<std::tuple<Tick, std::uint64_t, SeqNum>> ref_;
    std::vector<std::pair<SeqNum, Tick>> got_, want_;
};

TEST(EventQueue, RingMatchesSortedReference)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 1009u}) {
        SCOPED_TRACE(seed);
        DifferentialDriver(seed).run(4000);
    }
}

// ---- Quiescence-aware skip-ahead ----------------------------------

TEST(Clocked, DefaultNextWakeTickIsNextCycle)
{
    TickCounter c;
    EXPECT_EQ(c.nextWakeTick(0), 1u);
    EXPECT_EQ(c.nextWakeTick(41), 42u);
}

/** Sleeps until a fixed tick, then runs every cycle; records both the
 *  cycles it executed and the fast-forwards applied to it. */
class Sleeper : public Clocked
{
  public:
    explicit Sleeper(Tick wake) : Clocked("sleeper"), wake_(wake) {}
    void tick(Tick now) override { ticks.push_back(now); }
    Tick
    nextWakeTick(Tick now) const override
    {
        return wake_ > now ? wake_ : now + 1;
    }
    void
    onFastForward(Tick from, Tick to) override
    {
        skips.emplace_back(from, to);
    }

    Tick wake_;
    std::vector<Tick> ticks;
    std::vector<std::pair<Tick, Tick>> skips;
};

TEST(SkipAhead, FastForwardsToComponentWake)
{
    Simulation sim;
    Sleeper s(100);
    sim.add(&s);
    sim.run(150);
    EXPECT_EQ(sim.now(), 150u);
    EXPECT_EQ(sim.cyclesSkipped(), 99u);
    // Cycle 0 executes (classification), then 100..149.
    ASSERT_EQ(s.ticks.size(), 51u);
    EXPECT_EQ(s.ticks[0], 0u);
    EXPECT_EQ(s.ticks[1], 100u);
    EXPECT_EQ(s.ticks.back(), 149u);
    ASSERT_EQ(s.skips.size(), 1u);
    EXPECT_EQ(s.skips[0], std::make_pair(Tick{1}, Tick{100}));
}

TEST(SkipAhead, GlobalWakeIsMinOverComponents)
{
    Simulation sim;
    Sleeper late(300), early(40);
    sim.add(&late);
    sim.add(&early);
    sim.run(50);
    // The earlier sleeper bounds the whole system.
    ASSERT_GE(early.ticks.size(), 2u);
    EXPECT_EQ(early.ticks[1], 40u);
    EXPECT_EQ(late.ticks[1], 40u); // executed cycles tick everyone
    EXPECT_EQ(sim.cyclesSkipped(), 39u);
}

TEST(SkipAhead, LandsExactlyOnPendingEvent)
{
    Simulation sim;
    Sleeper s(1000);
    sim.add(&s);
    Recorder rec;
    sim.events().setDispatcher(&rec);
    sim.events().schedule(40, ev(1));
    sim.run(60);
    EXPECT_EQ(rec.whens, (std::vector<Tick>{40}));
    // Executed: cycle 0, the event cycle 40, nothing else.
    ASSERT_EQ(s.ticks.size(), 2u);
    EXPECT_EQ(s.ticks[1], 40u);
    EXPECT_EQ(sim.now(), 60u);
    EXPECT_EQ(sim.cyclesSkipped(), 58u);
}

TEST(SkipAhead, StopsAtRunBoundary)
{
    Simulation sim;
    Sleeper s(1000);
    sim.add(&s);
    sim.run(50);
    EXPECT_EQ(sim.now(), 50u);
    ASSERT_EQ(s.skips.size(), 1u);
    EXPECT_EQ(s.skips[0], std::make_pair(Tick{1}, Tick{50}));
    // A later run() resumes cleanly from the boundary.
    sim.run(10);
    EXPECT_EQ(sim.now(), 60u);
    ASSERT_EQ(s.ticks.size(), 2u);
    EXPECT_EQ(s.ticks[1], 50u);
}

TEST(SkipAhead, LandsOnTelemetryWindowBoundary)
{
    telemetry::ProbeRegistry reg;
    telemetry::SamplerOptions opts;
    opts.interval = 100;
    telemetry::TimeSeriesSampler sampler(reg, opts, nullptr);

    Simulation sim;
    Sleeper s(1000);
    sim.add(&sampler);
    sim.add(&s);
    sim.run(350);
    // Boundaries 100, 200, 300 all executed despite the idle system.
    EXPECT_EQ(sampler.windowsClosed(), 3u);
    EXPECT_GT(sim.cyclesSkipped(), 0u);
}

TEST(SkipAhead, DisabledExecutesEveryCycle)
{
    SimulationConfig cfg;
    cfg.skipAhead = false;
    Simulation sim(cfg);
    Sleeper s(100);
    sim.add(&s);
    sim.run(150);
    EXPECT_EQ(s.ticks.size(), 150u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
    EXPECT_TRUE(s.skips.empty());
}

TEST(SkipAhead, RunUntilDrainsDueEventsBeforePredicate)
{
    Simulation sim;
    Sleeper s(1000);
    sim.add(&s);
    Recorder rec;
    sim.events().setDispatcher(&rec);
    sim.events().schedule(50, ev(1));
    const bool hit =
        sim.runUntil([&] { return !rec.fired.empty(); }, 200);
    EXPECT_TRUE(hit);
    // The predicate observes the event on the cycle it lands on.
    EXPECT_EQ(sim.now(), 50u);
}

TEST(SkipAhead, RunUntilSeesEveryExecutedCycle)
{
    Simulation sim;
    TickCounter c; // active every cycle: nothing may be skipped
    sim.add(&c);
    const bool hit =
        sim.runUntil([&] { return c.ticks.size() >= 7; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(sim.now(), 7u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
}

TEST(VerifySkip, ExecutesClaimedQuiescentRegions)
{
    SimulationConfig cfg;
    cfg.verifySkip = true;
    Simulation sim(cfg);
    Sleeper s(100);
    sim.add(&s);
    sim.run(150);
    // Every cycle executes (counters accrue naturally, no bulk
    // replication), while the wake claims are checked per cycle.
    EXPECT_EQ(s.ticks.size(), 150u);
    EXPECT_TRUE(s.skips.empty());
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
}

/**
 * Claims a distant wake at the skip decision (polled with now == 0),
 * then reneges inside the region: an under-report. Keyed on `now`
 * rather than a call counter so the lie is the same however many
 * times the decision point polls (batched pass + oracle).
 */
class Liar : public Clocked
{
  public:
    Liar() : Clocked("liar") {}
    void tick(Tick) override {}
    Tick
    nextWakeTick(Tick now) const override
    {
        return now == 0 ? now + 100 : now + 5;
    }
};

TEST(VerifySkipDeathTest, CatchesUnderReportedWake)
{
    EXPECT_DEATH(
        {
            SimulationConfig cfg;
            cfg.verifySkip = true;
            Simulation sim(cfg);
            Liar liar;
            sim.add(&liar);
            sim.run(150);
        },
        "under-reported");
}

// ---- Whole-system determinism (skip on vs off) --------------------

namespace
{

SystemConfig
throttledMix()
{
    SystemConfig cfg =
        SystemConfig::multiProgram({"gcc", "mcf", "libquantum"});
    cfg.gate = GateKind::Mitts;
    // Bottom-bin-only credits: long shaper blocks, so the run is
    // dominated by skippable globally-idle gaps.
    std::vector<std::uint32_t> credits(cfg.binSpec.numBins, 0);
    credits[cfg.binSpec.numBins - 1] = 2;
    cfg.mittsConfigs.assign(8, BinConfig(cfg.binSpec, credits));
    return cfg;
}

} // namespace

TEST(SkipAhead, FullSystemStatsAreBitIdentical)
{
    SystemConfig on = throttledMix();
    SystemConfig off = throttledMix();
    off.sim.skipAhead = false;

    System sys_on(on), sys_off(off);
    sys_on.run(60'000);
    sys_off.run(60'000);

    EXPECT_GT(sys_on.sim().cyclesSkipped(), 0u);
    EXPECT_EQ(sys_off.sim().cyclesSkipped(), 0u);

    std::ostringstream a, b;
    sys_on.dumpStats(a);
    sys_off.dumpStats(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(SkipAhead, FullSystemRunUntilInstructionsMatches)
{
    SystemConfig on = throttledMix();
    SystemConfig off = throttledMix();
    off.sim.skipAhead = false;

    System sys_on(on), sys_off(off);
    const auto ra = sys_on.runUntilInstructions(3'000, 400'000);
    const auto rb = sys_off.runUntilInstructions(3'000, 400'000);

    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].completed, rb[i].completed) << i;
        EXPECT_EQ(ra[i].completedAt, rb[i].completedAt) << i;
        EXPECT_EQ(ra[i].instructions, rb[i].instructions) << i;
        EXPECT_EQ(ra[i].memStallCycles, rb[i].memStallCycles) << i;
    }
}

} // namespace
} // namespace mitts
