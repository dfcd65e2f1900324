/**
 * @file
 * IaaS tenant accounting and the reconfiguration policies of paper
 * Sec. III-F: "Schedule-based auto-scaling allows users to change bin
 * configuration at a given time, such as 'add n credits to bin m
 * between 8AM to 6PM each day'. Rule-based mechanisms allow users to
 * define triggers by specifying bin reconfiguration thresholds and
 * actions, such as 'run Genetic Algorithm to reconfigure bins when
 * the application's objective function is below a threshold value'."
 */

#ifndef MITTS_IAAS_TENANT_HH
#define MITTS_IAAS_TENANT_HH

#include <functional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "ckpt/serialize.hh"
#include "iaas/pricing.hh"
#include "shaper/mitts_shaper.hh"
#include "sim/clocked.hh"

namespace mitts
{

/**
 * One cloud customer: a set of cores (shapers) plus billing. Charges
 * accrue per replenishment period for the configuration held during
 * that period, so reconfiguration changes the bill going forward.
 */
class Tenant : public ckpt::Serializable
{
  public:
    Tenant(std::string name, const PricingModel &pricing,
           std::vector<MittsShaper *> shapers);

    const std::string &name() const { return name_; }

    /** Purchase (apply) a new bin configuration on every core. */
    void purchase(const BinConfig &cfg, Tick now);

    /** Accrue charges up to `now` under the current configuration. */
    void accrue(Tick now);

    /** Money owed so far (core rental + bandwidth). */
    double bill(Tick now);

    /** Charges accrued so far, without advancing the accrual clock
     *  (pure read for telemetry probes; excludes the open period). */
    double accruedCharges() const { return charges_; }

    /** Price per period of the currently held configuration. */
    double currentRate() const;

    const BinConfig &currentConfig() const { return current_; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(shapers_.size());
    }

    /** Checkpoint the held configuration and the accrual state; the
     *  shapers serialize themselves (their owner's sections), so
     *  loadState deliberately does not touch them. */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  private:
    // detlint-transient(immutable tenant id)
    std::string name_;
    // detlint-transient(construction-time config; never mutated after build)
    PricingModel pricing_;
    std::vector<MittsShaper *> shapers_;
    BinConfig current_;
    Tick accruedTo_ = 0;
    double charges_ = 0.0;
};

/** A scheduled configuration change (schedule-based auto-scaling). */
struct ScheduledReconfig
{
    Tick at;          ///< absolute cycle to apply at
    BinConfig config; ///< configuration to purchase
};

/** A rule: when `trigger` fires, apply `action` (rule-based). */
struct ReconfigRule
{
    /** Evaluated every checkPeriod; true = fire. */
    std::function<bool(Tick now)> trigger;
    /** Action, e.g. purchase a bigger config or launch a GA. */
    std::function<void(Tick now)> action;
    /** Minimum cycles between firings (0 = fire at most once). */
    Tick cooldown = 0;
    Tick lastFiredAt = kTickNever;
};

/**
 * The tenant-side runtime: applies scheduled reconfigurations and
 * evaluates rules, mirroring the cloud auto-scaling mechanisms the
 * paper describes.
 */
class AutoScaler : public Clocked, public ckpt::Serializable
{
  public:
    AutoScaler(std::string name, Tenant &tenant,
               Tick check_period = 1'000);

    /** Register a schedule entry (kept sorted by time). */
    void schedule(ScheduledReconfig entry);

    /** Register a rule. */
    void addRule(ReconfigRule rule);

    void tick(Tick now) override;

    /**
     * Quiescent until the earlier of the next rule-check boundary and
     * the next scheduled reconfiguration; tick() does nothing on any
     * other cycle.
     */
    Tick nextWakeTick(Tick now) const override;

    /** Deadline-style claim: the check boundary and schedule head
     *  advance only when tick() fires at them; schedule() and
     *  restore mark the claim dirty. */
    bool wakeClaimCacheable() const override { return true; }

    /**
     * Rule triggers/actions are closures and cannot be serialized;
     * the owner re-registers the same rules before loadState, which
     * restores their cooldown clocks (and throws ckpt::Error on a
     * rule-count mismatch).
     */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

    std::uint64_t reconfigurations() const
    {
        return reconfigs_.value();
    }
    std::uint64_t ruleFirings() const { return ruleFirings_.value(); }
    stats::Group &statsGroup() { return stats_; }

  private:
    Tenant &tenant_;
    Tick checkPeriod_;
    Tick nextCheckAt_ = 0;
    std::vector<ScheduledReconfig> schedule_;
    std::vector<ReconfigRule> rules_;

    stats::Group stats_;
    stats::Counter &reconfigs_;
    stats::Counter &ruleFirings_;
};

} // namespace mitts

#endif // MITTS_IAAS_TENANT_HH
