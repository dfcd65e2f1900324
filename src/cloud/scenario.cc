#include "cloud/scenario.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "trace/app_profile.hh"

namespace mitts::cloud
{

namespace
{

[[noreturn]] void
fail(const std::string &what, unsigned line, const std::string &msg)
{
    throw ScenarioError(what + ":" + std::to_string(line) + ": " +
                        msg);
}

std::uint64_t
parseU64(const std::string &what, unsigned line,
         const std::string &v)
{
    // stoull accepts a leading '-' and negates modulo 2^64.
    if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])))
        fail(what, line, "expected non-negative integer, got '" + v +
                             "'");
    try {
        std::size_t pos = 0;
        const std::uint64_t r = std::stoull(v, &pos);
        if (pos != v.size())
            fail(what, line, "trailing junk in integer '" + v + "'");
        return r;
    } catch (const ScenarioError &) {
        throw;
    } catch (const std::exception &) {
        fail(what, line, "expected integer, got '" + v + "'");
    }
}

unsigned
parseU32(const std::string &what, unsigned line,
         const std::string &v)
{
    const std::uint64_t r = parseU64(what, line, v);
    if (r > std::numeric_limits<unsigned>::max())
        fail(what, line, "integer out of range: '" + v + "'");
    return static_cast<unsigned>(r);
}

double
parseF64(const std::string &what, unsigned line,
         const std::string &v)
{
    try {
        std::size_t pos = 0;
        const double r = std::stod(v, &pos);
        if (pos != v.size())
            fail(what, line, "trailing junk in number '" + v + "'");
        // NaN would pass every range check in validateScenario.
        if (!std::isfinite(r))
            fail(what, line, "expected finite number, got '" + v + "'");
        return r;
    } catch (const ScenarioError &) {
        throw;
    } catch (const std::exception &) {
        fail(what, line, "expected number, got '" + v + "'");
    }
}

bool
parseBool(const std::string &what, unsigned line,
          const std::string &v)
{
    if (v == "on" || v == "true" || v == "1")
        return true;
    if (v == "off" || v == "false" || v == "0")
        return false;
    fail(what, line, "expected on/off, got '" + v + "'");
}

std::vector<std::string>
splitCsv(const std::string &v)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : v) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

} // namespace

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
        std::string value;
        ls >> value;
        std::string extra;
        if (ls >> extra)
            fail(what, lineno,
                 "unexpected trailing token '" + extra + "'");
        if (value.empty())
            fail(what, lineno, "key '" + key + "' needs a value");

        if (key == "name") {
            sc.name = value;
        } else if (key == "seed") {
            sc.seed = parseU64(what, lineno, value);
        } else if (key == "sockets") {
            sc.sockets = parseU32(what, lineno, value);
        } else if (key == "cores_per_socket") {
            sc.coresPerSocket = parseU32(what, lineno, value);
        } else if (key == "window") {
            sc.windowCycles = parseU64(what, lineno, value);
        } else if (key == "duration") {
            sc.durationCycles = parseU64(what, lineno, value);
        } else if (key == "arrivals_per_window") {
            sc.arrivalsPerWindow = parseF64(what, lineno, value);
        } else if (key == "mean_residency_windows") {
            sc.meanResidencyWindows = parseF64(what, lineno, value);
        } else if (key == "diurnal_period") {
            sc.diurnalPeriod = parseU64(what, lineno, value);
        } else if (key == "diurnal_min") {
            sc.diurnalMin = parseF64(what, lineno, value);
        } else if (key == "max_tenants") {
            sc.maxTenants = parseU32(what, lineno, value);
        } else if (key == "profiles") {
            sc.profiles = splitCsv(value);
        } else if (key == "tier_weights") {
            sc.tierWeights.clear();
            for (const auto &w : splitCsv(value))
                sc.tierWeights.push_back(
                    parseF64(what, lineno, w));
        } else if (key == "autoscaler") {
            sc.autoscaler = parseBool(what, lineno, value);
        } else if (key == "upgrade_stall_fraction") {
            sc.upgradeStallFraction = parseF64(what, lineno, value);
        } else if (key == "downgrade_stall_fraction") {
            sc.downgradeStallFraction =
                parseF64(what, lineno, value);
        } else if (key == "demand_stall_fraction") {
            sc.demandStallFraction = parseF64(what, lineno, value);
        } else if (key == "telemetry") {
            sc.telemetry = parseBool(what, lineno, value);
        } else if (key == "sample_interval") {
            sc.sampleInterval = parseU64(what, lineno, value);
        } else {
            fail(what, lineno, "unknown key '" + key + "'");
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
