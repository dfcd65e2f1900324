/**
 * @file
 * Observe-only decorators over the simulator's layer interfaces.
 *
 * Each decorator wraps the object a System wired in, forwards every
 * virtual call unchanged, and records a span (plus the counts the
 * layer's ratios need) around the calls that do the layer's work.
 * They are installed through the System's public wiring hooks:
 *
 *   TraceSource   SystemConfig::traceFactory
 *   L1Client      L1Cache::setClient
 *   SourceGate    L1Cache::setGate and SharedLlc::setGate
 *   MemSink       L1Cache::setDownstream (the LLC),
 *                 SharedLlc::setDownstream (the memory controller)
 *   MemScheduler  MemController::setScheduler
 *
 * Because they only observe, a decorated System's stats dump equals
 * an undecorated one's (tests/test_perfbench.cc checks this with
 * skip-ahead and a MITTS gate on).
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/interfaces.hh"
#include "sched/mem_scheduler.hh"
#include "system/system.hh"
#include "trace/trace_source.hh"
#include "tracer.hh"

namespace perfbench
{

class TracedTrace : public mitts::TraceSource
{
  public:
    TracedTrace(std::unique_ptr<mitts::TraceSource> inner, Tracer &t)
        : inner_(std::move(inner)), t_(t)
    {
    }

    mitts::TraceOp
    next() override
    {
        Tracer::Scope s(t_, Layer::TraceNext);
        return inner_->next();
    }
    void reset() override { inner_->reset(); }
    void
    saveState(mitts::ckpt::Writer &w) const override
    {
        inner_->saveState(w);
    }
    void
    loadState(mitts::ckpt::Reader &r) override
    {
        inner_->loadState(r);
    }

  private:
    std::unique_ptr<mitts::TraceSource> inner_;
    Tracer &t_;
};

class TracedClient : public mitts::L1Client
{
  public:
    TracedClient(mitts::L1Client &inner, Tracer &t)
        : inner_(inner), t_(t)
    {
    }

    void
    loadComplete(mitts::SeqNum seq, mitts::Tick now) override
    {
        Tracer::Scope s(t_, Layer::CoreLoadComplete, seq);
        inner_.loadComplete(seq, now);
    }

  private:
    mitts::L1Client &inner_;
    Tracer &t_;
};

class TracedGate : public mitts::SourceGate
{
  public:
    TracedGate(mitts::SourceGate &inner, Tracer &t)
        : inner_(inner), t_(t)
    {
    }

    bool
    tryIssue(mitts::MemRequest &req, mitts::Tick now) override
    {
        Tracer::Scope s(t_, Layer::GateTryIssue, req.seq);
        const bool ok = inner_.tryIssue(req, now);
        grants += ok;
        return ok;
    }
    void
    onLlcResponse(const mitts::MemRequest &req, bool hit,
                  mitts::Tick now) override
    {
        inner_.onLlcResponse(req, hit, now);
    }
    mitts::Tick
    nextIssueTick(mitts::Tick now) const override
    {
        ++wakePolls;
        return inner_.nextIssueTick(now);
    }
    void
    onSkippedStalls(mitts::Tick cycles) override
    {
        inner_.onSkippedStalls(cycles);
    }

    std::uint64_t grants = 0;
    mutable std::uint64_t wakePolls = 0;

  private:
    mitts::SourceGate &inner_;
    Tracer &t_;
};

class TracedSink : public mitts::MemSink
{
  public:
    TracedSink(mitts::MemSink &inner, Tracer &t, Layer layer)
        : inner_(inner), t_(t), layer_(layer)
    {
    }

    bool
    canAccept(const mitts::MemRequest &req) const override
    {
        const bool ok = inner_.canAccept(req);
        ++offers;
        accepts += ok;
        return ok;
    }
    void
    push(mitts::ReqPtr req, mitts::Tick now) override
    {
        Tracer::Scope s(t_, layer_, req->seq);
        inner_.push(std::move(req), now);
    }

    mutable std::uint64_t offers = 0;
    mutable std::uint64_t accepts = 0;

  private:
    mitts::MemSink &inner_;
    Tracer &t_;
    Layer layer_;
};

class TracedScheduler : public mitts::MemScheduler
{
  public:
    TracedScheduler(mitts::MemScheduler &inner, Tracer &t)
        : inner_(inner), t_(t)
    {
    }

    std::string name() const override { return inner_.name(); }
    int
    pick(const mitts::TxnQueue &queue, const mitts::Dram &dram,
         mitts::Tick now) override
    {
        Tracer::Scope s(t_, Layer::SchedPick);
        const int idx = inner_.pick(queue, dram, now);
        idlePicks += idx < 0;
        return idx;
    }
    void
    onEnqueue(const mitts::MemRequest &req, mitts::Tick now) override
    {
        inner_.onEnqueue(req, now);
    }
    void
    onComplete(const mitts::MemRequest &req, mitts::Tick now) override
    {
        inner_.onComplete(req, now);
    }
    void tick(mitts::Tick now) override { inner_.tick(now); }
    mitts::Tick
    nextWakeTick(mitts::Tick now) const override
    {
        return inner_.nextWakeTick(now);
    }
    void
    setMonitor(const mitts::AppMonitor *mon) override
    {
        inner_.setMonitor(mon);
    }
    void
    saveState(mitts::ckpt::Writer &w) const override
    {
        inner_.saveState(w);
    }
    void
    loadState(mitts::ckpt::Reader &r) override
    {
        inner_.loadState(r);
    }

    std::uint64_t idlePicks = 0;

  private:
    mitts::MemScheduler &inner_;
    Tracer &t_;
};

/** Per-layer counts summed over every decorator of a Decorations. */
struct DecoratorCounts
{
    std::uint64_t gateGrants = 0;
    std::uint64_t gateWakePolls = 0;
    std::uint64_t llcOffers = 0;
    std::uint64_t llcAccepts = 0;
    std::uint64_t mcOffers = 0;
    std::uint64_t mcAccepts = 0;
    std::uint64_t idlePicks = 0;

    DecoratorCounts &
    operator+=(const DecoratorCounts &o)
    {
        gateGrants += o.gateGrants;
        gateWakePolls += o.gateWakePolls;
        llcOffers += o.llcOffers;
        llcAccepts += o.llcAccepts;
        mcOffers += o.mcOffers;
        mcAccepts += o.mcAccepts;
        idlePicks += o.idlePicks;
        return *this;
    }
};

/**
 * Wraps every wiring point of one System (except its trace sources,
 * which only the config's traceFactory can reach). Must be destroyed
 * after the System stops simulating; the System never calls through
 * its wiring pointers while being destroyed.
 */
class Decorations
{
  public:
    Decorations(mitts::System &sys, Tracer &t);
    Decorations(const Decorations &) = delete;
    Decorations &operator=(const Decorations &) = delete;

    DecoratorCounts counts() const;

  private:
    std::vector<std::unique_ptr<TracedClient>> clients_;
    std::vector<std::unique_ptr<TracedGate>> gates_;
    std::unique_ptr<TracedSink> llcSink_;
    std::unique_ptr<TracedSink> mcSink_;
    std::unique_ptr<TracedScheduler> sched_;
};

/**
 * A traceFactory that builds the default SyntheticTrace and, while a
 * tracer is attached, wraps it in a TracedTrace. Installing it on
 * every config keeps traced and untraced Systems checkpoint-
 * compatible: the config hash records only the factory's presence.
 */
struct TraceHook
{
    Tracer *tracer = nullptr;
};
void installTraceFactory(mitts::SystemConfig &cfg,
                         std::shared_ptr<TraceHook> hook);

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HH
