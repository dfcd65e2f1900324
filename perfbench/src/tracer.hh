/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark's decorators open a span around each call they
 * forward into a simulator layer, under a per-step parent span that
 * the workload loop opens around each simulated slice, sweep unit
 * or scenario window. Every span is folded into a per-layer
 * aggregate (calls, total and self time); only spans of every
 * kSampleEvery-th step are kept individually, at most kPerStep of
 * them per step and kMaxSpans in all, so memory stays bounded
 * however long the run is. A layer's self time
 * is its span durations minus the part covered by child spans.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench
{

/** The layer boundaries a span can sit on. */
enum class Layer : std::uint8_t
{
    Step,             ///< per-step parent span (workload loop)
    TraceNext,        ///< TraceSource::next
    CoreLoadComplete, ///< L1Client::loadComplete (the core)
    GateTryIssue,     ///< SourceGate::tryIssue (the shaper)
    LlcPush,          ///< MemSink::push into the LLC
    McPush,           ///< MemSink::push into the memory controller
    SchedPick,        ///< MemScheduler::pick
    Count,
};

const char *layerName(Layer l);

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Spans that carry no request id. */
constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

/** Steps whose spans are kept: every kSampleEvery-th. */
constexpr std::uint64_t kSampleEvery = 32;
/** Spans kept per sampled step, and in all. */
constexpr std::size_t kPerStep = 2000;
constexpr std::size_t kMaxSpans = 20000;

class Tracer
{
  public:
    struct Aggregate
    {
        std::uint64_t calls = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t selfNs = 0;
    };

    struct Span
    {
        std::uint32_t id;
        std::uint32_t parent; ///< 0 = root
        Layer layer;
        std::uint64_t startNs;
        std::uint64_t endNs;
        std::uint64_t request; ///< kNoRequest when none
    };

    Tracer() { stack_.reserve(16); }

    /** Open a span; spans close in LIFO order. */
    void
    begin(Layer layer, std::uint64_t request = kNoRequest)
    {
        const bool sampled =
            (stack_.empty() ? sampleStep_ : stack_.back().sampled) &&
            stepSpans_ < kPerStep && nextId_ < kMaxSpans;
        stepSpans_ += sampled;
        stack_.push_back({layer, request, nowNs(), 0,
                          sampled ? ++nextId_ : 0u, sampled});
    }

    void end();

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, Layer layer,
              std::uint64_t request = kNoRequest)
            : t_(t)
        {
            t_.begin(layer, request);
        }
        ~Scope() { t_.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
    };

    /** Open the parent span of step `index` (decides sampling). */
    void beginStep(std::uint64_t index);
    void endStep() { end(); }

    const Aggregate &
    aggregate(Layer l) const
    {
        return agg_[static_cast<std::size_t>(l)];
    }
    /** Self time of every decorated layer (all but Step). */
    std::uint64_t decoratedSelfNs() const;
    const std::vector<Span> &spans() const { return spans_; }

    /** Forget aggregates and kept spans (between repetitions). */
    void clear();

    /** Aggregates plus the kept spans as one JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    struct Open
    {
        Layer layer;
        std::uint64_t request;
        std::uint64_t startNs;
        std::uint64_t childNs;
        std::uint32_t id;
        bool sampled;
    };

    bool sampleStep_ = false;
    std::size_t stepSpans_ = 0;
    std::uint32_t nextId_ = 0;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::array<Aggregate, static_cast<std::size_t>(Layer::Count)>
        agg_{};
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
