#include "tracer.hh"

namespace perfbench
{

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Step:
        return "step";
      case Layer::TraceNext:
        return "trace.next";
      case Layer::CoreLoadComplete:
        return "core.load_complete";
      case Layer::GateTryIssue:
        return "shaper.try_issue";
      case Layer::LlcPush:
        return "llc.push";
      case Layer::McPush:
        return "mc.push";
      case Layer::SchedPick:
        return "sched.pick";
      case Layer::Count:
        break;
    }
    return "?";
}

void
Tracer::end()
{
    const std::uint64_t t = nowNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t - o.startNs;
    Aggregate &a = agg_[static_cast<std::size_t>(o.layer)];
    ++a.calls;
    a.totalNs += dur;
    a.selfNs += dur > o.childNs ? dur - o.childNs : 0;
    std::uint32_t parent = 0;
    if (!stack_.empty()) {
        stack_.back().childNs += dur;
        parent = stack_.back().id;
    }
    if (o.sampled)
        spans_.push_back({o.id, parent, o.layer, o.startNs, t,
                          o.request});
}

void
Tracer::beginStep(std::uint64_t index)
{
    sampleStep_ = index % kSampleEvery == 0;
    stepSpans_ = 0;
    begin(Layer::Step, index);
}

std::uint64_t
Tracer::decoratedSelfNs() const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < agg_.size(); ++i) {
        if (static_cast<Layer>(i) != Layer::Step)
            sum += agg_[i].selfNs;
    }
    return sum;
}

void
Tracer::clear()
{
    stack_.clear();
    spans_.clear();
    agg_ = {};
    nextId_ = 0;
    stepSpans_ = 0;
}

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"layers\": {";
    for (std::size_t i = 0; i < agg_.size(); ++i) {
        const Aggregate &a = agg_[i];
        os << (i ? ", " : "") << '"' << layerName(static_cast<Layer>(i))
           << "\": {\"calls\": " << a.calls
           << ", \"total_ns\": " << a.totalNs
           << ", \"self_ns\": " << a.selfNs << '}';
    }
    os << "},\n\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"name\": \""
           << layerName(s.layer) << "\", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs;
        if (s.request != kNoRequest)
            os << ", \"request\": " << s.request;
        os << '}';
    }
    os << "\n]}\n";
}

} // namespace perfbench
