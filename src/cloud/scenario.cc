#include "cloud/scenario.hh"

#include <fstream>
#include <sstream>

#include "base/parse.hh"
#include "trace/app_profile.hh"

namespace mitts::cloud
{

ScenarioConfig
parseScenario(std::istream &in, const std::string &what)
{
    ScenarioConfig sc;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue; // blank / comment-only line
        const std::string ctx = parse::at(what, lineno);
        std::string value;
        ls >> value;
        std::string extra;
        if (ls >> extra)
            parse::fail(ctx, "unexpected trailing token '" + extra + "'");
        if (value.empty())
            parse::fail(ctx, "key '" + key + "' needs a value");
        const auto u64 = [&] { return parse::u64(ctx, value); };
        const auto u32 = [&] { return parse::uint<unsigned>(ctx, value); };
        const auto f64 = [&] { return parse::finite(ctx, value); };

        if (key == "name") {
            sc.name = value;
        } else if (key == "seed") {
            sc.seed = u64();
        } else if (key == "sockets") {
            sc.sockets = u32();
        } else if (key == "cores_per_socket") {
            sc.coresPerSocket = u32();
        } else if (key == "window") {
            sc.windowCycles = u64();
        } else if (key == "duration") {
            sc.durationCycles = u64();
        } else if (key == "arrivals_per_window") {
            sc.arrivalsPerWindow = f64();
        } else if (key == "mean_residency_windows") {
            sc.meanResidencyWindows = f64();
        } else if (key == "diurnal_period") {
            sc.diurnalPeriod = u64();
        } else if (key == "diurnal_min") {
            sc.diurnalMin = f64();
        } else if (key == "max_tenants") {
            sc.maxTenants = u32();
        } else if (key == "profiles") {
            sc.profiles = parse::list(ctx, value, ',');
        } else if (key == "tier_weights") {
            sc.tierWeights.clear();
            for (const auto &w : parse::list(ctx, value, ','))
                sc.tierWeights.push_back(parse::finite(ctx, w));
        } else if (key == "autoscaler") {
            sc.autoscaler = parse::boolean(ctx, value);
        } else if (key == "upgrade_stall_fraction") {
            sc.upgradeStallFraction = f64();
        } else if (key == "downgrade_stall_fraction") {
            sc.downgradeStallFraction = f64();
        } else if (key == "demand_stall_fraction") {
            sc.demandStallFraction = f64();
        } else if (key == "telemetry") {
            sc.telemetry = parse::boolean(ctx, value);
        } else if (key == "sample_interval") {
            sc.sampleInterval = u64();
        } else {
            parse::fail(ctx, "unknown key '" + key + "'");
        }
    }
    validateScenario(sc);
    return sc;
}

ScenarioConfig
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ScenarioError("cannot open scenario file: " + path);
    return parseScenario(in, path);
}

void
validateScenario(const ScenarioConfig &sc)
{
    const auto bad = [&](const std::string &msg) {
        throw ScenarioError("scenario '" + sc.name + "': " + msg);
    };
    if (sc.sockets == 0)
        bad("sockets must be >= 1");
    if (sc.coresPerSocket == 0)
        bad("cores_per_socket must be >= 1");
    if (sc.windowCycles == 0)
        bad("window must be >= 1");
    if (sc.durationCycles == 0 ||
        sc.durationCycles % sc.windowCycles != 0)
        bad("duration must be a positive multiple of window");
    if (sc.arrivalsPerWindow < 0)
        bad("arrivals_per_window must be >= 0");
    if (sc.meanResidencyWindows <= 0)
        bad("mean_residency_windows must be > 0");
    if (sc.diurnalMin <= 0 || sc.diurnalMin > 1)
        bad("diurnal_min must be in (0, 1]");
    if (sc.profiles.empty())
        bad("profiles must name at least one workload");
    for (const auto &p : sc.profiles) {
        if (p.empty())
            bad("empty profile name in profiles list");
        if (!hasAppProfile(p))
            bad("unknown profile '" + p + "'");
        // A slot is one core: multithreaded profiles are run
        // single-threaded (the engine forces numThreads = 1).
    }
    for (double w : sc.tierWeights) {
        if (w < 0)
            bad("tier_weights must be non-negative");
    }
    if (sc.upgradeStallFraction < 0 || sc.upgradeStallFraction > 1 ||
        sc.downgradeStallFraction < 0 ||
        sc.downgradeStallFraction > 1 ||
        sc.demandStallFraction < 0 || sc.demandStallFraction > 1)
        bad("stall fractions must be in [0, 1]");
    if (sc.sampleInterval == 0)
        bad("sample_interval must be >= 1");
}

std::uint64_t
scenarioHash(const ScenarioConfig &sc)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    const auto mixs = [&](const std::string &s) {
        mix(s.size());
        for (char c : s)
            mix(static_cast<unsigned char>(c));
    };
    const auto mixf = [&](double v) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    };
    mixs(sc.name);
    mix(sc.seed);
    mix(sc.sockets);
    mix(sc.coresPerSocket);
    mix(sc.windowCycles);
    mix(sc.durationCycles);
    mixf(sc.arrivalsPerWindow);
    mixf(sc.meanResidencyWindows);
    mix(sc.diurnalPeriod);
    mixf(sc.diurnalMin);
    mix(sc.maxTenants);
    mix(sc.profiles.size());
    for (const auto &p : sc.profiles)
        mixs(p);
    mix(sc.tierWeights.size());
    for (double w : sc.tierWeights)
        mixf(w);
    mix(sc.autoscaler ? 1 : 0);
    mixf(sc.upgradeStallFraction);
    mixf(sc.downgradeStallFraction);
    mixf(sc.demandStallFraction);
    mix(sc.telemetry ? 1 : 0);
    mix(sc.sampleInterval);
    return h;
}

} // namespace mitts::cloud
