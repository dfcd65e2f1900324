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
 * Min-heap of (tick, sequence, EventDesc). Events scheduled for the
 * same tick fire in scheduling order, keeping the simulation
 * deterministic. Same-tick ordering survives a checkpoint round trip:
 * events are serialized in drain order (when, then scheduling
 * sequence) and renumbered densely on load, so the restored queue
 * drains identically even though the absolute sequence numbers differ.
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
 * the same drain, after all previously scheduled due events
 * (scheduling order is preserved by the sequence number).
 */
class EventQueue
{
  public:
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
        heap_.push_back(Event{when, nextSeq_++, std::move(ev)});
        std::push_heap(heap_.begin(), heap_.end(), Event::later);
    }

    /** Run all events with tick <= now (events may schedule more). */
    void
    runDue(Tick now)
    {
        horizon_ = std::max(horizon_, now);
        while (!heap_.empty() && heap_.front().when <= now) {
            MITTS_ASSERT(dispatcher_, "EventQueue has no dispatcher");
            std::pop_heap(heap_.begin(), heap_.end(), Event::later);
            // Move out before pop so the handler can schedule events.
            const Event e = std::move(heap_.back());
            heap_.pop_back();
            dispatcher_->dispatch(e.desc, e.when);
        }
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event (kTickNever when empty). */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? kTickNever : heap_.front().when;
    }

    /** Serialize pending events in drain order. */
    void
    saveState(ckpt::Writer &w) const
    {
        std::vector<const Event *> ordered;
        ordered.reserve(heap_.size());
        for (const auto &e : heap_)
            ordered.push_back(&e);
        std::sort(ordered.begin(), ordered.end(),
                  [](const Event *a, const Event *b) {
                      return a->when != b->when ? a->when < b->when
                                                : a->seq < b->seq;
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
     * kind byte; `check` sees every descriptor and throws ckpt::Error
     * for one whose target does not exist. Events are renumbered
     * 0..n-1 in drain order.
     */
    template <typename Check>
    void
    loadState(ckpt::Reader &r, const Check &check)
    {
        MITTS_ASSERT(heap_.empty(),
                     "EventQueue::loadState on a non-empty queue");
        horizon_ = r.u64();
        const std::uint64_t n = r.u64();
        heap_.reserve(n);
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
            check(d);
            heap_.push_back(Event{when, i, std::move(d)});
        }
        // Drain order is a valid heap order, but normalize anyway.
        std::make_heap(heap_.begin(), heap_.end(), Event::later);
        nextSeq_ = n;
    }

  private:
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

    std::vector<Event> heap_;
    // detlint-transient(pending events are renumbered 0..n-1 on load)
    std::uint64_t nextSeq_ = 0;
    /** Tick of the most recent runDue(); past-schedule clamp floor. */
    Tick horizon_ = 0;
    EventDispatcher *dispatcher_ = nullptr;
};

} // namespace mitts

#endif // MITTS_SIM_EVENT_QUEUE_HH
