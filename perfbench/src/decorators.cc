#include "decorators.hh"

#include "sched/fst.hh"
#include "trace/synth_trace.hh"

namespace perfbench
{

namespace
{

/** The gate System wired between core `c`'s L1 and the LLC, or
 *  nullptr when it has none this benchmark can reach (MemGuard's
 *  gates are private to the System). */
mitts::SourceGate *
wiredGate(mitts::System &sys, mitts::CoreId c)
{
    const mitts::SystemConfig &cfg = sys.config();
    switch (cfg.gate) {
      case mitts::GateKind::Mitts:
        return sys.shaper(c);
      case mitts::GateKind::Static:
        return sys.staticGate(c);
      case mitts::GateKind::None:
        if (cfg.sched == mitts::SchedulerKind::Fst)
            return static_cast<mitts::FstScheduler &>(sys.scheduler())
                .gate(c);
        return nullptr;
    }
    return nullptr;
}

} // namespace

Decorations::Decorations(mitts::System &sys, Tracer &t)
{
    llcSink_ = std::make_unique<TracedSink>(sys.llc(), t,
                                            Layer::LlcPush);
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        const auto c = static_cast<mitts::CoreId>(i);
        clients_.push_back(
            std::make_unique<TracedClient>(sys.core(c), t));
        sys.l1(c).setClient(clients_.back().get());
        sys.l1(c).setDownstream(llcSink_.get());
        if (mitts::SourceGate *g = wiredGate(sys, c)) {
            gates_.push_back(std::make_unique<TracedGate>(*g, t));
            sys.l1(c).setGate(gates_.back().get());
            sys.llc().setGate(c, gates_.back().get());
        }
    }
    mcSink_ = std::make_unique<TracedSink>(sys.memController(), t,
                                           Layer::McPush);
    sys.llc().setDownstream(mcSink_.get());
    sched_ = std::make_unique<TracedScheduler>(sys.scheduler(), t);
    sys.memController().setScheduler(sched_.get());
}

DecoratorCounts
Decorations::counts() const
{
    DecoratorCounts n;
    for (const auto &g : gates_) {
        n.gateGrants += g->grants;
        n.gateWakePolls += g->wakePolls;
    }
    n.llcOffers = llcSink_->offers;
    n.llcAccepts = llcSink_->accepts;
    n.mcOffers = mcSink_->offers;
    n.mcAccepts = mcSink_->accepts;
    n.idlePicks = sched_->idlePicks;
    return n;
}

void
installTraceFactory(mitts::SystemConfig &cfg,
                    std::shared_ptr<TraceHook> hook)
{
    cfg.traceFactory = [hook](mitts::CoreId, unsigned,
                              const mitts::AppProfile &prof,
                              mitts::Addr base, std::uint64_t seed,
                              unsigned thread)
        -> std::unique_ptr<mitts::TraceSource> {
        auto trace = std::make_unique<mitts::SyntheticTrace>(
            prof, base, seed, thread);
        if (!hook->tracer)
            return trace;
        return std::make_unique<TracedTrace>(std::move(trace),
                                             *hook->tracer);
    };
}

} // namespace perfbench
