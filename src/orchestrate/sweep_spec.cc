#include "orchestrate/sweep_spec.hh"

#include <fstream>
#include <sstream>

#include "ckpt/config_hash.hh"
#include "trace/app_profile.hh"

namespace mitts::orchestrate
{

namespace
{

std::vector<std::uint32_t>
parseBins(const std::string &ctx, const std::string &v)
{
    std::vector<std::uint32_t> bins;
    for (const auto &tok : parse::list(ctx, v, ':'))
        bins.push_back(parse::uint<std::uint32_t>(ctx, tok));
    return bins;
}

/** FNV-1a over a sequence of u64 words. */
class KeyHash
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFFu;
            h_ *= 0x100000001B3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string
binsToString(const std::vector<std::uint32_t> &bins)
{
    if (bins.empty())
        return "-";
    std::string s;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (i)
            s += ':';
        s += std::to_string(bins[i]);
    }
    return s;
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] =
            digits[v & 0xFu];
        v >>= 4;
    }
    return s;
}

/** CLI spelling of a scheduler (matches mitts_sim --sched), as
 *  opposed to schedulerName()'s display form ("FR-FCFS"). Sweep
 *  files, unit descriptions and cache-entry descs all use this. */
const char *
schedulerCliName(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::Frfcfs:
        return "frfcfs";
      case SchedulerKind::Fcfs:
        return "fcfs";
      case SchedulerKind::FairQueue:
        return "fairqueue";
      case SchedulerKind::Atlas:
        return "atlas";
      case SchedulerKind::Parbs:
        return "parbs";
      case SchedulerKind::Stfm:
        return "stfm";
      case SchedulerKind::Tcm:
        return "tcm";
      case SchedulerKind::Fst:
        return "fst";
      case SchedulerKind::MemGuard:
        return "memguard";
      case SchedulerKind::Mise:
        return "mise";
    }
    return "?";
}

} // namespace

SchedulerKind
schedulerFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(SchedulerKind::Mise);
         ++i) {
        const auto k = static_cast<SchedulerKind>(i);
        if (name == schedulerCliName(k))
            return k;
    }
    throw SweepError("unknown scheduler '" + name + "'");
}

SweepSpec
parseSweep(std::istream &in, const std::string &what)
{
    SweepSpec spec;
    std::string text;
    unsigned lineno = 0;
    while (std::getline(in, text)) {
        ++lineno;
        const std::string ctx = parse::at(what, lineno);
        const std::string_view line =
            parse::trim(std::string_view(text).substr(0, text.find('#')));
        if (line.empty())
            continue;

        const auto eq = line.find('=');
        if (eq == std::string_view::npos)
            parse::fail(ctx, "expected `key = value`");
        std::string key(parse::trim(line.substr(0, eq)));
        const std::string value(parse::trim(line.substr(eq + 1)));
        if (key.empty() || value.empty())
            parse::fail(ctx, "expected `key = value`");
        const auto u64 = [&](const std::string &v) {
            return parse::u64(ctx, v);
        };

        if (key.rfind("sweep ", 0) == 0) {
            key = std::string(parse::trim(key.substr(6)));
            const auto items = parse::list(ctx, value, ',');
            if (key == "sched") {
                spec.schedAxis = items;
            } else if (key == "seed") {
                for (const auto &v : items)
                    spec.seedAxis.push_back(u64(v));
            } else if (key == "bins") {
                for (const auto &v : items)
                    spec.binsAxis.push_back(parseBins(ctx, v));
            } else if (key == "llc-kb") {
                for (const auto &v : items)
                    spec.llcKbAxis.push_back(u64(v));
            } else if (key == "instr") {
                for (const auto &v : items)
                    spec.instrAxis.push_back(u64(v));
            } else {
                parse::fail(ctx, "unknown sweep axis '" + key +
                                     "' (sched, seed, bins, llc-kb, "
                                     "instr)");
            }
            continue;
        }

        if (key == "name") {
            spec.name = value;
        } else if (key == "mode") {
            if (value == "grid")
                spec.mode = SweepMode::Grid;
            else if (value == "tune")
                spec.mode = SweepMode::Tune;
            else
                parse::fail(ctx, "mode must be grid or tune, not '" +
                                     value + "'");
        } else if (key == "apps") {
            spec.apps = parse::list(ctx, value, ',');
        } else if (key == "instr") {
            spec.instr = u64(value);
        } else if (key == "max-cycles") {
            spec.maxCycles = u64(value);
        } else if (key == "llc-kb") {
            spec.llcKb = u64(value);
        } else if (key == "seed") {
            spec.seed = u64(value);
        } else if (key == "gate") {
            if (value == "none")
                spec.gate = GateKind::None;
            else if (value == "mitts")
                spec.gate = GateKind::Mitts;
            else
                parse::fail(ctx, "gate must be none or mitts, not '" +
                                     value + "'");
        } else if (key == "objective") {
            if (value == "throughput")
                spec.objective = Objective::Throughput;
            else if (value == "fairness")
                spec.objective = Objective::Fairness;
            else
                parse::fail(ctx,
                            "objective must be throughput or fairness");
        } else if (key == "generations") {
            spec.generations = parse::uint<unsigned>(ctx, value);
        } else if (key == "population") {
            spec.population = parse::uint<unsigned>(ctx, value);
        } else if (key == "ga-seed") {
            spec.gaSeed = u64(value);
        } else if (key == "prefilter") {
            spec.prefilter = parse::boolean(ctx, value);
        } else if (key == "warmup") {
            spec.warmupInstr = u64(value);
        } else {
            parse::fail(ctx, "unknown key '" + key + "'");
        }
    }
    return spec;
}

SweepSpec
parseSweepFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SweepError("cannot open sweep file " + path);
    return parseSweep(in, path);
}

void
validateSweep(const SweepSpec &spec)
{
    if (spec.apps.empty())
        throw SweepError("sweep needs at least one app");
    for (const auto &a : spec.apps)
        if (!hasAppProfile(a))
            throw SweepError("unknown app profile '" + a + "'");
    if (spec.instr == 0 || spec.maxCycles == 0)
        throw SweepError("instr and max-cycles must be positive");
    if (spec.llcKb == 0)
        throw SweepError("llc-kb must be positive");
    for (const auto &s : spec.schedAxis)
        schedulerFromName(s); // throws on unknown
    for (const auto v : spec.instrAxis)
        if (v == 0)
            throw SweepError("instr axis values must be positive");
    for (const auto v : spec.llcKbAxis)
        if (v == 0)
            throw SweepError("llc-kb axis values must be positive");

    const BinSpec bin_spec; // default geometry
    for (const auto &bins : spec.binsAxis)
        if (bins.size() != bin_spec.numBins)
            throw SweepError(
                "bins axis value has " +
                std::to_string(bins.size()) + " credits, expected " +
                std::to_string(bin_spec.numBins));
    if (!spec.binsAxis.empty() && spec.gate != GateKind::Mitts)
        throw SweepError("a bins axis requires gate = mitts");

    if (spec.mode == SweepMode::Tune) {
        if (!spec.schedAxis.empty() || !spec.seedAxis.empty() ||
            !spec.binsAxis.empty() || !spec.llcKbAxis.empty() ||
            !spec.instrAxis.empty())
            throw SweepError("sweep axes are grid-mode only");
        if (spec.generations == 0 || spec.population == 0)
            throw SweepError(
                "generations and population must be positive");
        if (spec.warmupInstr >= spec.instr)
            if (spec.warmupInstr != 0)
                throw SweepError("warmup must be below instr");
    }
}

std::string
specToText(const SweepSpec &spec)
{
    std::ostringstream os;
    os << "name = " << spec.name << "\n";
    os << "mode = "
       << (spec.mode == SweepMode::Grid ? "grid" : "tune") << "\n";
    os << "apps = ";
    for (std::size_t i = 0; i < spec.apps.size(); ++i)
        os << (i ? "," : "") << spec.apps[i];
    os << "\n";
    os << "instr = " << spec.instr << "\n";
    os << "max-cycles = " << spec.maxCycles << "\n";
    os << "llc-kb = " << spec.llcKb << "\n";
    os << "seed = " << spec.seed << "\n";
    os << "gate = "
       << (spec.gate == GateKind::Mitts ? "mitts" : "none") << "\n";
    os << "objective = "
       << (spec.objective == Objective::Fairness ? "fairness"
                                                 : "throughput")
       << "\n";
    os << "generations = " << spec.generations << "\n";
    os << "population = " << spec.population << "\n";
    os << "ga-seed = " << spec.gaSeed << "\n";
    os << "prefilter = " << (spec.prefilter ? 1 : 0) << "\n";
    os << "warmup = " << spec.warmupInstr << "\n";

    auto axisU64 = [&os](const char *key,
                         const std::vector<std::uint64_t> &vals) {
        if (vals.empty())
            return;
        os << "sweep " << key << " = ";
        for (std::size_t i = 0; i < vals.size(); ++i)
            os << (i ? "," : "") << vals[i];
        os << "\n";
    };
    if (!spec.schedAxis.empty()) {
        os << "sweep sched = ";
        for (std::size_t i = 0; i < spec.schedAxis.size(); ++i)
            os << (i ? "," : "") << spec.schedAxis[i];
        os << "\n";
    }
    axisU64("seed", spec.seedAxis);
    if (!spec.binsAxis.empty()) {
        os << "sweep bins = ";
        for (std::size_t i = 0; i < spec.binsAxis.size(); ++i)
            os << (i ? "," : "") << binsToString(spec.binsAxis[i]);
        os << "\n";
    }
    axisU64("llc-kb", spec.llcKbAxis);
    axisU64("instr", spec.instrAxis);
    return os.str();
}

unsigned
specNumCores(const SweepSpec &spec)
{
    unsigned cores = 0;
    for (const auto &a : spec.apps)
        cores += appProfile(a).numThreads;
    return cores;
}

std::uint64_t
unitCount(const SweepSpec &spec)
{
    auto len = [](std::size_t n) {
        return n ? static_cast<std::uint64_t>(n) : 1ull;
    };
    return len(spec.schedAxis.size()) * len(spec.seedAxis.size()) *
           len(spec.binsAxis.size()) * len(spec.llcKbAxis.size()) *
           len(spec.instrAxis.size());
}

UnitSpec
unitAt(const SweepSpec &spec, std::uint64_t index)
{
    MITTS_ASSERT(index < unitCount(spec), "unit index out of range");
    UnitSpec u;
    u.index = index;
    u.seed = spec.seed;
    u.llcKb = spec.llcKb;
    u.instr = spec.instr;

    // Row-major decomposition, last axis fastest.
    auto next = [&index](std::size_t n) -> std::size_t {
        if (!n)
            return 0;
        const std::size_t i =
            static_cast<std::size_t>(index % n);
        index /= n;
        return i;
    };
    const std::size_t i_instr = next(spec.instrAxis.size());
    const std::size_t i_llc = next(spec.llcKbAxis.size());
    const std::size_t i_bins = next(spec.binsAxis.size());
    const std::size_t i_seed = next(spec.seedAxis.size());
    const std::size_t i_sched = next(spec.schedAxis.size());

    if (!spec.schedAxis.empty())
        u.sched = schedulerFromName(spec.schedAxis[i_sched]);
    if (!spec.seedAxis.empty())
        u.seed = spec.seedAxis[i_seed];
    if (!spec.binsAxis.empty())
        u.bins = spec.binsAxis[i_bins];
    if (!spec.llcKbAxis.empty())
        u.llcKb = spec.llcKbAxis[i_llc];
    if (!spec.instrAxis.empty())
        u.instr = spec.instrAxis[i_instr];
    return u;
}

SystemConfig
unitConfig(const SweepSpec &spec, const UnitSpec &unit)
{
    SystemConfig cfg = SystemConfig::multiProgram(spec.apps);
    cfg.llc.sizeBytes = unit.llcKb * 1024;
    cfg.sched = unit.sched;
    cfg.seed = unit.seed;
    cfg.gate = spec.gate;
    if (spec.gate == GateKind::Mitts && !unit.bins.empty()) {
        const unsigned cores = specNumCores(spec);
        cfg.mittsConfigs.assign(
            cores, BinConfig(cfg.binSpec, unit.bins));
    }
    return cfg;
}

SystemConfig
tuneBaseConfig(const SweepSpec &spec)
{
    SystemConfig cfg = SystemConfig::multiProgram(spec.apps);
    cfg.llc.sizeBytes = spec.llcKb * 1024;
    cfg.seed = spec.seed;
    cfg.gate = GateKind::Mitts;
    return cfg;
}

std::string
unitDesc(const SweepSpec &spec, const UnitSpec &unit)
{
    std::ostringstream os;
    os << "unit " << unit.index << " sched="
       << schedulerCliName(unit.sched) << " seed=" << unit.seed
       << " bins=" << binsToString(unit.bins)
       << " llc_kb=" << unit.llcKb << " instr=" << unit.instr
       << " cfg=" << hex16(ckpt::configHash(unitConfig(spec, unit)));
    return os.str();
}

std::uint64_t
unitCacheKey(const SweepSpec &spec, const UnitSpec &unit)
{
    KeyHash h;
    h.u64(kRecordVersion);
    h.u64(ckpt::configHash(unitConfig(spec, unit)));
    h.u64(unit.instr);
    h.u64(spec.maxCycles);
    return h.value();
}

} // namespace mitts::orchestrate
