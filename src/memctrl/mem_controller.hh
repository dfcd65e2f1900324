/**
 * @file
 * Memory controller: bounded transaction queue, pluggable scheduling
 * policy, optional global MITTS smoothing FIFO (paper Sec. III-C).
 */

#ifndef MITTS_MEMCTRL_MEM_CONTROLLER_HH
#define MITTS_MEMCTRL_MEM_CONTROLLER_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "cache/interfaces.hh"
#include "dram/dram.hh"
#include "mem/request_pool.hh"
#include "mem/txn_queue.hh"
#include "sched/mem_scheduler.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "telemetry/probe.hh"

namespace mitts
{

class SharedLlc;

namespace telemetry
{
class Telemetry;
} // namespace telemetry

/** Controller parameters (paper Table II: 32-entry queue). */
struct McConfig
{
    unsigned queueDepth = 32;
    /**
     * Independent memory channels (paper Table II uses 1). Blocks
     * interleave across channels at row granularity; each channel
     * has its own DRAM device and transaction queue, sharing one
     * scheduling policy (cf. application-aware channel partitioning
     * in the paper's related work).
     */
    unsigned numChannels = 1;
    /**
     * Write-drain watermarks: when a channel queue holds at least
     * `writeDrainHigh` writebacks the controller services writes
     * preferentially until `writeDrainLow` remain (standard
     * read-priority controllers batch writes this way so they never
     * back up into the LLC). 0 disables draining.
     */
    unsigned writeDrainHigh = 12;
    unsigned writeDrainLow = 4;
    /**
     * Depth of the global FIFO in front of the transaction queue that
     * absorbs simultaneous bursts from many MITTS shapers; 0 disables
     * it (requests enter the queue directly).
     */
    unsigned smoothingFifoDepth = 0;
    /**
     * Track a per-core demand-read latency histogram (off by default:
     * it adds state and checkpoint sections). The cloud SLA monitor
     * derives windowed p99 latency from bucket deltas, so the bin
     * width bounds the percentile resolution.
     */
    bool latencyHistograms = false;
    unsigned latencyHistBins = 96;
    double latencyHistBinWidth = 16.0; ///< cycles per bucket
};

class MemController : public Clocked, public MemSink
{
  public:
    MemController(std::string name, const McConfig &cfg,
                  const DramConfig &dram_cfg, EventQueue &events);

    // Swapping the scheduler changes what nextWakeTick would answer
    // (it folds in sched_->nextWakeTick), so the cached claim must be
    // invalidated even though this is normally a wiring-time call.
    void
    setScheduler(MemScheduler *sched)
    {
        sched_ = sched;
        markWakeDirty();
    }
    void setLlc(SharedLlc *llc) { llc_ = llc; }

    // MemSink (LLC -> MC side)
    bool canAccept(const MemRequest &req) const override;
    void push(ReqPtr req, Tick now) override;

    void tick(Tick now) override;
    Tick nextWakeTick(Tick now) const override;

    /**
     * The controller's wake claim is a function of queue contents,
     * DRAM timing state, the drain latches and the scheduler's own
     * (deadline-style) claim — all of which change only via push()
     * or an executed tick that actually does something, and every
     * such site marks the claim dirty. That makes the claim
     * cacheable: the Simulation stops re-polling the per-transaction
     * timing scan every executed cycle (the dominant saturated-path
     * overhead) and reads it from the wake wheel instead.
     */
    bool wakeClaimCacheable() const override { return true; }

    Dram &dram(unsigned channel = 0) { return *drams_[channel]; }
    const Dram &dram(unsigned channel = 0) const
    {
        return *drams_[channel];
    }
    unsigned numChannels() const { return cfg_.numChannels; }

    /** Channel a block maps to (row-granularity interleave). */
    unsigned channelOf(Addr block_addr) const;

    /** Demand reads completed, per core (for service-rate estimates). */
    std::uint64_t completed(CoreId core) const
    {
        return completedPerCore_.at(core)->value();
    }

    /** Total demand reads completed. */
    std::uint64_t completed() const { return completed_.value(); }

    /** Mean demand-read latency (L1-miss to DRAM burst end) for one
     *  core; 0 when that core completed nothing. Feeds the analytic
     *  envelope oracle (src/analytic/envelope.hh). */
    double meanLatency(CoreId core) const
    {
        return latencyPerCore_.at(core)->mean();
    }
    std::uint64_t latencySamples(CoreId core) const
    {
        return latencyPerCore_.at(core)->count();
    }

    /** Per-core latency histogram (nullptr unless
     *  cfg.latencyHistograms; see McConfig). */
    const stats::Histogram *
    latencyHistogram(CoreId core) const
    {
        return cfg_.latencyHistograms ? latencyHistPerCore_.at(core)
                                      : nullptr;
    }

    stats::Group &statsGroup() { return stats_; }
    double avgQueueLatency() const { return queueLatency_.mean(); }
    /** Entries across all channel queues. Kept inline: callers in
     *  mitts_sched (MemGuard) sit below this library in the link
     *  order. */
    std::size_t
    queueSize() const
    {
        std::size_t total = 0;
        for (const auto &q : queues_)
            total += q.size();
        return total;
    }
    unsigned queueCapacity() const
    {
        return cfg_.queueDepth * cfg_.numChannels;
    }

    /** Number of cores tracked in per-core stats. */
    void initPerCore(unsigned num_cores);

    /**
     * Register time-series probes (queue depth, smoothing-FIFO
     * occupancy, read/write/completion counters) and delegate to
     * every DRAM channel.
     */
    void registerTelemetry(telemetry::Telemetry &t);

    /** A demand request's DRAM burst ended at `done` (MemComplete
     *  event): stat samples, scheduler notify, LLC fill. */
    void complete(const ReqPtr &req, Tick done);

    /** Checkpoint queues, drain latches, FIFO, DRAM timing, stats. */
    void saveState(ckpt::Writer &w) const;
    void loadState(ckpt::Reader &r);

  private:
    void scheduleChannel(unsigned channel, Tick now);
    int pickOldestWrite(const TxnQueue &queue, const Dram &dram,
                        Tick now) const;

    /** A channel's queue or DRAM timing state changed: drop its
     *  cached scan bound and the controller-level wake claim. */
    void
    invalidateChannel(unsigned channel)
    {
        scanValid_[channel] = 0;
        markWakeDirty();
    }

    // detlint-transient(construction config; load validates geometry against it)
    McConfig cfg_;
    EventQueue &events_;
    std::vector<std::unique_ptr<Dram>> drams_; ///< one per channel
    MemScheduler *sched_ = nullptr;
    SharedLlc *llc_ = nullptr;

    /** Scheduler-visible transaction queues, one per channel, held as
     *  structure-of-arrays so the per-cycle scans stay on flat
     *  columns (mem/txn_queue.hh). */
    std::vector<TxnQueue> queues_;
    std::vector<bool> draining_; ///< per-channel write-drain mode
    std::deque<ReqPtr> smoothingFifo_;///< optional global MITTS FIFO

    /**
     * Cached per-channel earliest-issue lower bound (the min of
     * earliestIssueTick over the channel's queue). Valid until the
     * queue or the channel's DRAM timing state changes; the final
     * max(.., now+1) clamp in nextWakeTick makes an old clamp-limited
     * value equal to a fresh scan. Derived state — never serialized,
     * dropped on restore.
     */
    mutable std::vector<Tick> scanMin_;
    mutable std::vector<std::uint8_t> scanValid_;

    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;

    stats::Group stats_;
    stats::Counter &reads_;
    stats::Counter &writes_;
    stats::Counter &completed_;
    stats::Average &queueLatency_;
    stats::Average &totalLatency_;
    std::vector<stats::Counter *> completedPerCore_;
    std::vector<stats::Average *> latencyPerCore_;
    std::vector<stats::Histogram *> latencyHistPerCore_;
};

} // namespace mitts

#endif // MITTS_MEMCTRL_MEM_CONTROLLER_HH
