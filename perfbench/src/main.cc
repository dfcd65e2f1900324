/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--root <checkout>] [--work <dir>] [--commit <id>]
 *             [--source-digest <hex>]
 *
 * Prints a run-metadata row, a table of every metric (catalogued and
 * workload-specific) by name and unit, and as its last line the
 * result object of perfbench/README.md. perfbench/run.py builds this
 * binary and passes the checkout paths.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

/** Pin MITTS_THREADS to at most nproc (and at most 4). */
std::string
pinThreads()
{
    const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    const long cap = std::min(nproc, 4L);
    const char *env = std::getenv("MITTS_THREADS");
    const long asked = env ? std::atol(env) : 0;
    const long use = asked >= 1 && asked <= cap ? asked : cap;
    const std::string v = std::to_string(use);
    setenv("MITTS_THREADS", v.c_str(), 1);
    return v;
}

/** Clear the simulator's debug switches: MITTS_SIM_NO_SKIP turns
 *  skip-ahead off and MITTS_SIM_VERIFY_SKIP re-polls every cycle.
 *  Neither changes an output, so the digests could not catch them,
 *  but both change every host time. Returns the names cleared. */
std::string
clearSimSwitches()
{
    std::string cleared;
    for (const char *name : {"MITTS_SIM_NO_SKIP", "MITTS_SIM_VERIFY_SKIP"}) {
        if (std::getenv(name)) {
            if (!cleared.empty())
                cleared += ',';
            cleared += name;
            unsetenv(name);
        }
    }
    return cleared;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--root") {
            o.root = v;
        } else if (a == "--work") {
            o.work = v;
        } else if (a == "--commit") {
            o.commit = v;
        } else if (a == "--source-digest") {
            o.sourceDigest = v;
        } else {
            throw std::invalid_argument("unknown flag " + a);
        }
    }
    if (!haveWorkload)
        throw std::invalid_argument("--workload is required");
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  o.workload) == workloadNames().end())
        throw std::invalid_argument("unknown workload " + o.workload);
    if (o.work.empty())
        o.work = o.root + "/.bench_build/perfbench-work";
    return o;
}

void
printMeta(const Options &o, const Report &r, const std::string &threads,
          const std::string &cleared)
{
    std::ostringstream os;
    os << "meta {\"commit\": " << jsonString(o.commit)
       << ", \"source_digest\": " << jsonString(o.sourceDigest)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"mitts_threads\": " << threads
       << ", \"env_cleared\": " << jsonString(cleared)
       << ", \"workload\": " << jsonString(o.workload)
       << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
       << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"params\": {";
    for (std::size_t i = 0; i < r.params.size(); ++i)
        os << (i ? ", " : "") << jsonString(r.params[i].first) << ": "
           << jsonString(r.params[i].second);
    os << "}}";
    std::cout << os.str() << "\n";
}

void
printTable(const Report &r, bool trace)
{
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    for (const auto &d : defs) {
        std::cout << "metric " << d.name << " = " << r.metrics.at(d.name)
                  << " " << d.unit << "\n";
    }
    for (const auto &e : r.extra)
        std::cout << "metric " << e.name << " = " << e.value << " "
                  << e.unit << "\n";
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    std::cout << "check digest=" << digest
              << " attempted=" << r.attempted
              << " failed=" << r.failed
              << " steady=" << (r.steady ? "yes" : "no") << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        const std::string threads = pinThreads();
        const std::string cleared = clearSimSwitches();

        // Each run writes into its own directory, removed at the end;
        // the steady guard's step series and a traced run's spans are
        // kept beside it.
        const std::string tag =
            opt.workload + "-" + std::to_string(opt.seed);
        const std::string base = opt.work;
        opt.work = base + "/" + tag + "-" + std::to_string(getpid());
        opt.tracePath = base + "/trace-" + tag + ".json";
        opt.stepsPath = base + "/steps-" + tag + ".csv";
        fs::remove_all(opt.work);
        fs::create_directories(opt.work);

        const Report r = runWorkload(opt);
        fs::remove_all(opt.work);

        printMeta(opt, r, threads, cleared);
        printTable(r, opt.trace);
        std::ostringstream result;
        writeResultJson(result, r, opt.trace);
        std::cout << result.str() << std::flush;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
