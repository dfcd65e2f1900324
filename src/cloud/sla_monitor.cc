#include "cloud/sla_monitor.hh"

#include "base/logging.hh"
#include "system/system.hh"
#include "telemetry/telemetry.hh"

namespace mitts::cloud
{

SlaMonitor::SlaMonitor(System &sys, Tick window_cycles,
                       double demand_stall_fraction)
    : Clocked("sla_monitor"), sys_(sys), window_(window_cycles),
      demandStallFraction_(demand_stall_fraction), stats_("sla")
{
    MITTS_ASSERT(window_ > 0, "SLA window must be positive");
    const unsigned n = sys_.numCores();
    slots_.resize(n);
    prev_.resize(n);
    for (unsigned c = 0; c < n; ++c) {
        const stats::Histogram *h =
            sys_.memController().latencyHistogram(c);
        MITTS_ASSERT(h, "SlaMonitor needs mc.latencyHistograms");
        prev_[c].histBins.assign(h->numBins(), 0);
        const std::string p = "core" + std::to_string(c) + "_";
        windows_.push_back(&stats_.addCounter(p + "sla_windows"));
        latViolations_.push_back(
            &stats_.addCounter(p + "latency_violations"));
        bwViolations_.push_back(
            &stats_.addCounter(p + "bandwidth_violations"));
    }
}

void
SlaMonitor::occupy(CoreId c, std::uint64_t tenant_id,
                   double p99_bound, double min_gbps)
{
    MITTS_ASSERT(!slots_[c].occupied, "SLA slot already occupied");
    slots_[c].occupied = true;
    slots_[c].tenantId = tenant_id;
    slots_[c].p99Bound = p99_bound;
    slots_[c].minGBps = min_gbps;
    slots_[c].lastP99 = 0.0;
    slots_[c].lastGBps = 0.0;
}

void
SlaMonitor::updateSla(CoreId c, double p99_bound, double min_gbps)
{
    MITTS_ASSERT(slots_[c].occupied, "updateSla on a free slot");
    slots_[c].p99Bound = p99_bound;
    slots_[c].minGBps = min_gbps;
}

void
SlaMonitor::vacate(CoreId c)
{
    MITTS_ASSERT(slots_[c].occupied, "vacate on a free SLA slot");
    slots_[c] = Slot{};
}

void
SlaMonitor::tick(Tick now)
{
    if ((now + 1) % window_ == 0)
        closeWindow(now);
}

Tick
SlaMonitor::nextWakeTick(Tick now) const
{
    // Last cycle of the current window, or of the next one if that
    // boundary was just executed.
    Tick next = (now / window_ + 1) * window_ - 1;
    if (next <= now)
        next += window_;
    return next;
}

void
SlaMonitor::closeWindow(Tick /*now*/)
{
    const double ghz = sys_.config().cpuGhz;
    for (unsigned c = 0; c < slots_.size(); ++c) {
        const stats::Histogram *h =
            sys_.memController().latencyHistogram(c);
        CoreSnapshot &pr = prev_[c];

        // Window deltas against the previous boundary snapshot.
        std::vector<std::uint64_t> dbins(h->numBins());
        for (std::size_t i = 0; i < dbins.size(); ++i)
            dbins[i] = h->bin(i) - pr.histBins[i];
        const std::uint64_t dunder = h->underflow() - pr.histUnderflow;
        const std::uint64_t dover = h->overflow() - pr.histOverflow;
        const std::uint64_t dtotal = h->total() - pr.histTotal;
        const double dsum = h->sum() - pr.histSum;
        const std::uint64_t dcompleted =
            sys_.memController().completed(c) - pr.completed;
        const std::uint64_t dstall =
            sys_.shaper(c)->stallCycles() - pr.shaperStall;

        // Roll the snapshot forward unconditionally so a tenant that
        // arrives mid-epoch starts from a clean baseline.
        pr.histBins.assign(dbins.size(), 0);
        for (std::size_t i = 0; i < dbins.size(); ++i)
            pr.histBins[i] = h->bin(i);
        pr.histUnderflow = h->underflow();
        pr.histOverflow = h->overflow();
        pr.histTotal = h->total();
        pr.histSum = h->sum();
        pr.completed = sys_.memController().completed(c);
        pr.shaperStall = sys_.shaper(c)->stallCycles();

        Slot &s = slots_[c];
        if (!s.occupied)
            continue;

        windows_[c]->inc();

        // GB/s == bytes/ns == bytes-per-cycle * GHz.
        const double gbps =
            static_cast<double>(dcompleted * kBlockBytes) /
            static_cast<double>(window_) * ghz;
        s.lastGBps = gbps;

        double p99 = 0.0;
        if (dtotal > 0) {
            stats::Histogram scratch(
                "scratch", static_cast<unsigned>(h->numBins()),
                h->binWidth());
            scratch.restore(std::move(dbins), dunder, dover, dtotal,
                            dsum);
            p99 = scratch.percentile(0.99);
            if (p99 > s.p99Bound)
                latViolations_[c]->inc();
        }
        s.lastP99 = p99;

        // Only count a bandwidth shortfall when the shaper actually
        // held requests back this window: a tenant that was never
        // throttled was not denied bandwidth, and a latency-bound
        // workload is not misread as a provider-side shortfall.
        const double stall_frac = static_cast<double>(dstall) /
                                  static_cast<double>(window_);
        if (stall_frac >= demandStallFraction_ && gbps < s.minGBps)
            bwViolations_[c]->inc();
    }
}

void
SlaMonitor::registerTelemetry(telemetry::Telemetry &t)
{
    probes_.release();
    probes_.attach(&t.probes());
    using telemetry::ProbeKind;
    for (unsigned c = 0; c < slots_.size(); ++c) {
        const std::string p = "sla.core" + std::to_string(c) + ".";
        probes_.add(p + "tenant_id", ProbeKind::Gauge,
                    [this, c](Tick) {
                        return slots_[c].occupied
                                   ? static_cast<double>(
                                         slots_[c].tenantId)
                                   : -1.0;
                    });
        probes_.add(p + "latency_violations", ProbeKind::Counter,
                    [this, c](Tick) {
                        return static_cast<double>(
                            latViolations_[c]->value());
                    });
        probes_.add(p + "bandwidth_violations", ProbeKind::Counter,
                    [this, c](Tick) {
                        return static_cast<double>(
                            bwViolations_[c]->value());
                    });
        probes_.add(p + "p99_latency", ProbeKind::Gauge,
                    [this, c](Tick) { return slots_[c].lastP99; });
        probes_.add(p + "gbps", ProbeKind::Gauge,
                    [this, c](Tick) { return slots_[c].lastGBps; });
    }
}

void
SlaMonitor::saveState(ckpt::Writer &w) const
{
    ckpt::saveGroup(w, stats_);
    for (const Slot &s : slots_) {
        w.b(s.occupied);
        w.u64(s.tenantId);
        w.f64(s.p99Bound);
        w.f64(s.minGBps);
        w.f64(s.lastP99);
        w.f64(s.lastGBps);
    }
    for (const CoreSnapshot &pr : prev_) {
        w.vecU64(pr.histBins);
        w.u64(pr.histUnderflow);
        w.u64(pr.histOverflow);
        w.u64(pr.histTotal);
        w.f64(pr.histSum);
        w.u64(pr.completed);
        w.u64(pr.shaperStall);
    }
}

void
SlaMonitor::loadState(ckpt::Reader &r)
{
    ckpt::loadGroup(r, stats_);
    for (Slot &s : slots_) {
        s.occupied = r.b();
        s.tenantId = r.u64();
        s.p99Bound = r.f64();
        s.minGBps = r.f64();
        s.lastP99 = r.f64();
        s.lastGBps = r.f64();
    }
    for (CoreSnapshot &pr : prev_) {
        pr.histBins = r.vecU64();
        pr.histUnderflow = r.u64();
        pr.histOverflow = r.u64();
        pr.histTotal = r.u64();
        pr.histSum = r.f64();
        pr.completed = r.u64();
        pr.shaperStall = r.u64();
    }
}

} // namespace mitts::cloud
