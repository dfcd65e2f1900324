/**
 * @file
 * Delayed-event queue for modelling fixed response latencies (cache
 * hit latency, wire delays, DRAM bursts) without per-cycle polling.
 * An event is a typed, serializable EventDesc; the queue hands each
 * due descriptor to one registered EventDispatcher, so the same code
 * runs an event whether it was scheduled live or restored from a
 * checkpoint.
 */

#ifndef MITTS_SIM_EVENT_QUEUE_HH
#define MITTS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"
#include "mem/request_pool.hh"

namespace mitts
{

/**
 * What a pending event does. The kind names the response; the System
 * knows which component handles each kind. Kind values are the
 * checkpoint encoding (0 is retired and rejected on load).
 */
struct EventDesc
{
    enum class Kind : std::uint8_t
    {
        LoadComplete = 1, ///< L1 hit latency -> L1 client (the core)
        LlcFill = 2,      ///< LLC -> L1 fill response
        MemComplete = 3,  ///< DRAM burst done -> MC completion
    };

    Kind kind;
    CoreId core = kNoCore; ///< LoadComplete: target core
    SeqNum seq = 0;        ///< LoadComplete: completing access
    ReqPtr req;            ///< LlcFill / MemComplete payload

    static EventDesc
    loadComplete(CoreId core, SeqNum seq)
    {
        return {Kind::LoadComplete, core, seq, {}};
    }

    static EventDesc
    llcFill(ReqPtr req)
    {
        return {Kind::LlcFill, kNoCore, 0, std::move(req)};
    }

    static EventDesc
    memComplete(ReqPtr req)
    {
        return {Kind::MemComplete, kNoCore, 0, std::move(req)};
    }
};

/** Runs due events; the owner of the queue registers one. */
class EventDispatcher
{
  public:
    virtual ~EventDispatcher() = default;
    /** Run `ev`, which was scheduled for tick `when`. */
    virtual void dispatch(const EventDesc &ev, Tick when) = 0;
};

/**
 * Calendar queue of (tick, sequence, EventDesc). Events scheduled for
 * the same tick fire in scheduling order, keeping the simulation
 * deterministic.
 *
 * Layout. Event delays are short (L1 hit latency, LLC plus NoC route,
 * DRAM burst), so near events live in a ring of kRing one-tick
 * buckets covering [base, base + kRing): the bucket of tick t is
 * `t & (kRing - 1)`, each bucket is a FIFO vector, and one occupancy
 * word finds the earliest occupied bucket with a rotate and a
 * count-trailing-zeros. Events at or beyond base + kRing go to a
 * small (tick, sequence) min-heap. `base` only moves forward: to the
 * tick being drained, and to the drain horizon once a drain is done,
 * so every ring event stays inside the window and no two pending
 * ticks share a bucket.
 *
 * Same-tick order. Within a tick, far-heap events drain before ring
 * events. That is scheduling order: an event for tick T goes to the
 * far heap only while T >= base + kRing, and since base never moves
 * back, every far event for T was scheduled before any ring event
 * for T. Ring buckets are FIFO and the heap orders by sequence.
 *
 * Checkpoints. Pending events are serialized in drain order (when,
 * then scheduling sequence) and renumbered densely on load, so the
 * restored queue drains identically even though the absolute
 * sequence numbers (and the ring/heap split) differ.
 *
 * Scheduling into the past — `when` strictly below the tick of the
 * most recent runDue() — is a modelling bug: the event's cycle has
 * already been executed (and possibly skipped over). Debug builds
 * assert; release builds clamp the event to the current drain horizon
 * so it fires at the next opportunity instead of being lost below an
 * already-drained tick.
 *
 * Scheduling an event for the current tick from inside a dispatch
 * running under runDue(now) is well-defined: the new event fires in
 * the same drain, after all previously scheduled due events.
 */
class EventQueue
{
  public:
    /** Ticks covered by the ring (one bucket per tick). */
    static constexpr Tick kRing = 64;

    /** Register the handler of every due event (not owned). */
    void setDispatcher(EventDispatcher *d) { dispatcher_ = d; }

    /** Schedule `ev` to run at absolute tick `when`. */
    void
    schedule(Tick when, EventDesc ev)
    {
        if (when < horizon_) {
#ifndef NDEBUG
            panic("event scheduled in the past: when=", when,
                  " < horizon=", horizon_);
#endif
            when = horizon_;
        }
        place(Event{when, nextSeq_++, std::move(ev)});
    }

    /** Run all events with tick <= now (events may schedule more). */
    void
    runDue(Tick now)
    {
        horizon_ = std::max(horizon_, now);
        for (Tick t = nextEventTick(); t <= now; t = nextEventTick()) {
            MITTS_ASSERT(dispatcher_, "EventQueue has no dispatcher");
            // t is the earliest pending tick, so every ring event is
            // at or after it.
            base_ = t;
            while (!far_.empty() && far_.front().when == t) {
                std::pop_heap(far_.begin(), far_.end(), Event::later);
                // Move out before pop so the handler can schedule.
                const Event e = std::move(far_.back());
                far_.pop_back();
                dispatcher_->dispatch(e.desc, e.when);
            }
            const std::uint64_t bit = std::uint64_t{1} << (t & kMask);
            if (!(occupied_ & bit))
                continue;
            std::vector<Event> &bucket = ring_[t & kMask];
            // A handler may append same-tick events (and reallocate).
            for (std::size_t i = 0; i < bucket.size(); ++i) {
                const Event e = std::move(bucket[i]);
                dispatcher_->dispatch(e.desc, e.when);
            }
            bucket.clear();
            occupied_ &= ~bit;
        }
        base_ = horizon_;
    }

    bool empty() const { return occupied_ == 0 && far_.empty(); }

    std::size_t
    size() const
    {
        std::size_t n = far_.size();
        for (const auto &bucket : ring_)
            n += bucket.size();
        return n;
    }

    /** Tick of the earliest pending event (kTickNever when empty). */
    Tick
    nextEventTick() const
    {
        Tick next = far_.empty() ? kTickNever : far_.front().when;
        if (occupied_ != 0) {
            // Rotate base's bucket to bit 0: the lowest set bit is
            // then the earliest ring tick's distance from base.
            const std::uint64_t rel = std::rotr(
                occupied_, static_cast<int>(base_ & kMask));
            next = std::min(next, base_ + std::countr_zero(rel));
        }
        return next;
    }

    /** Serialize pending events in drain order. */
    void
    saveState(ckpt::Writer &w) const
    {
        std::vector<const Event *> ordered;
        ordered.reserve(size());
        for (const auto &e : far_)
            ordered.push_back(&e);
        for (const auto &bucket : ring_)
            for (const auto &e : bucket)
                ordered.push_back(&e);
        std::sort(ordered.begin(), ordered.end(),
                  [](const Event *a, const Event *b) {
                      return Event::later(*b, *a);
                  });
        w.u64(horizon_);
        w.u64(ordered.size());
        for (const Event *e : ordered) {
            w.u64(e->when);
            w.u8(static_cast<std::uint8_t>(e->desc.kind));
            w.i64(e->desc.core);
            w.u64(e->desc.seq);
            w.request(e->desc.req);
        }
    }

    /**
     * Restore into an empty queue. Throws ckpt::Error on an unknown
     * kind byte or an event below the saved drain horizon (it could
     * never have been pending, and the ring indexes events relative
     * to that horizon); `check` sees every descriptor and throws
     * ckpt::Error for one whose target does not exist. Events are
     * renumbered 0..n-1 in image order.
     */
    template <typename Check>
    void
    loadState(ckpt::Reader &r, const Check &check)
    {
        MITTS_ASSERT(empty(), "EventQueue::loadState on a non-empty queue");
        horizon_ = r.u64();
        base_ = horizon_;
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Tick when = r.u64();
            // Braced initializers are evaluated left to right.
            EventDesc d{static_cast<EventDesc::Kind>(r.u8()),
                        static_cast<CoreId>(r.i64()), r.u64(),
                        r.request()};
            if (d.kind < EventDesc::Kind::LoadComplete ||
                d.kind > EventDesc::Kind::MemComplete)
                throw ckpt::Error(
                    "unknown event kind " +
                    std::to_string(static_cast<int>(d.kind)) +
                    " in checkpoint");
            if (when < horizon_)
                throw ckpt::Error(
                    "event at tick " + std::to_string(when) +
                    " below the drain horizon " +
                    std::to_string(horizon_) + " in checkpoint");
            check(d);
            place(Event{when, i, std::move(d)});
        }
        nextSeq_ = n;
    }

  private:
    static constexpr Tick kMask = kRing - 1;
    static_assert((kRing & kMask) == 0 && kRing <= 64,
                  "the ring is one occupancy word of power-of-two size");

    struct Event
    {
        Tick when;
        std::uint64_t seq;
        EventDesc desc;

        /** Max-heap comparator inverted into a min-heap. */
        static bool
        later(const Event &a, const Event &b)
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /** File `e` (when >= base_) in its ring bucket or the far heap. */
    void
    place(Event e)
    {
        if (e.when - base_ < kRing) {
            occupied_ |= std::uint64_t{1} << (e.when & kMask);
            ring_[e.when & kMask].push_back(std::move(e));
        } else {
            far_.push_back(std::move(e));
            std::push_heap(far_.begin(), far_.end(), Event::later);
        }
    }

    /** Bucket t & kMask: FIFO of the events for tick t. */
    std::array<std::vector<Event>, kRing> ring_;
    /** Events at or beyond base_ + kRing, as a (when, seq) min-heap. */
    std::vector<Event> far_;
    // detlint-transient(derived ring state: bucket b non-empty)
    std::uint64_t occupied_ = 0;
    // detlint-transient(derived ring state: set to the horizon on load)
    Tick base_ = 0;
    // detlint-transient(pending events are renumbered 0..n-1 on load)
    std::uint64_t nextSeq_ = 0;
    /** Tick of the most recent runDue(); past-schedule clamp floor. */
    Tick horizon_ = 0;
    EventDispatcher *dispatcher_ = nullptr;
};

} // namespace mitts

#endif // MITTS_SIM_EVENT_QUEUE_HH
