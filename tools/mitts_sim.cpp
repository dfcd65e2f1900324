/**
 * @file
 * Command-line driver: build a system from flags, run it, report.
 *
 *   mitts_sim --apps gcc,mcf,bzip,sjeng --sched tcm --instr 200000
 *   mitts_sim --apps mcf --gate mitts --bins 40,0,0,0,0,0,0,0,0,25
 *   mitts_sim --apps mcf,libquantum --gate mitts --tune fairness
 *   mitts_sim --list-apps
 *
 * Run with --help for the full flag reference.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/analytic_model.hh"
#include "base/parse.hh"
#include "ckpt/serialize.hh"
#include "cloud/engine.hh"
#include "cloud/scenario.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "trace/app_profile.hh"
#include "tuner/offline_tuner.hh"

using namespace mitts;

namespace
{

constexpr const char *kToolVersion = "1.4.0";
constexpr std::uint64_t kMaxUnsigned =
    std::numeric_limits<unsigned>::max();

[[noreturn]] void
usage(int code)
{
    std::printf(R"(mitts_sim - MITTS multicore memory-system simulator

  --apps a,b,c       application mix (see --list-apps); required
  --backend B        cycle (default) | analytic: the cycle-accurate
                     simulator, or the closed-form M/D/1 fast model
  --sched NAME       frfcfs|fcfs|fairqueue|atlas|parbs|stfm|tcm|fst|memguard|mise
  --gate KIND        none|mitts|static
  --bins k0,..,k9    MITTS credits for every core (implies --gate mitts)
  --static-gbps G    per-core static rate limit in GB/s
  --tune OBJ         offline GA: throughput|fairness (implies mitts)
  --prefilter        rank each GA generation with the analytic model
                     and simulate only the top half (with --tune)
  --instr N          instructions per core to complete (default 200000)
  --cycles N         run a fixed cycle count instead
  --llc BYTES        shared LLC size (default 1MiB; k/m suffixes ok)
  --noc WxH          enable the mesh NoC with the given dimensions
  --seed S           simulation seed (default 12345)
  --stats            dump full component statistics at the end
  --no-skip          execute every cycle (disable quiescence skip-ahead)
  --telemetry-out D  write windowed time-series CSV (and trace) to D
  --sample-interval N  telemetry window length in cycles (default 10000)
  --trace-events     also emit Chrome trace-event JSON (chrome://tracing)
  --checkpoint-out D write checkpoints to D (final one always; periodic
                     ones with --checkpoint-every)
  --checkpoint-every N  also checkpoint at every N-cycle boundary
  --restore FILE     resume from a checkpoint written by an identically
                     configured run (pass the same flags again)
  --scenario FILE    run a cloud multi-tenant scenario (src/cloud/);
                     combines only with the scenario flags below plus
                     --stats and --no-skip
  --scenario-out D   write billing.csv / summary.txt (and per-socket
                     telemetry when the scenario enables it) to D
                     instead of stdout
  --scenario-until N stop the scenario at cycle N (window multiple)
  with --scenario, --checkpoint-out/--checkpoint-every/--restore take
  directories: one socketN.mitts per socket plus cloud.mitts
  --list-apps        print the workload registry and exit
  --version          print version and checkpoint format, then exit
  --help             this text

exit codes:
  0  success
  1  configuration or runtime error (unknown app/scheduler, bad bin
     count, simulation failure)
  2  usage error: unknown flag or --gate/--backend/--tune value,
     malformed or out-of-range numeric value (--instr/--cycles/
     --sample-interval/--checkpoint-every/--scenario-until must be
     positive integers, --seed a non-negative one, --static-gbps a
     positive number, --llc N[kKmM], --noc WxH of positive integers,
     --bins integers below 2^32), a conflicting combination (--tune with
     checkpointing, --checkpoint-every without --checkpoint-out,
     --prefilter without --tune, --backend analytic with any
     cycle-accurate-only flag: --cycles --stats --no-skip
     --telemetry-out --sample-interval --trace-events
     --checkpoint-out --checkpoint-every --restore --tune,
     --scenario with any single-system flag such as --apps or
     --tune), or an invalid/corrupt/mismatched checkpoint

every rejected combination prints a one-line reason on stderr.
)");
    std::exit(code);
}

/** One-line usage-error reason on stderr, exit 2 (no usage dump —
 *  scripts keying on stderr want exactly one line). */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "mitts_sim: %s (see --help)\n", msg.c_str());
    std::exit(2);
}

SchedulerKind
parseSched(const std::string &s)
{
    if (s == "frfcfs")
        return SchedulerKind::Frfcfs;
    if (s == "fcfs")
        return SchedulerKind::Fcfs;
    if (s == "fairqueue")
        return SchedulerKind::FairQueue;
    if (s == "atlas")
        return SchedulerKind::Atlas;
    if (s == "parbs")
        return SchedulerKind::Parbs;
    if (s == "stfm")
        return SchedulerKind::Stfm;
    if (s == "tcm")
        return SchedulerKind::Tcm;
    if (s == "fst")
        return SchedulerKind::Fst;
    if (s == "memguard")
        return SchedulerKind::MemGuard;
    if (s == "mise")
        return SchedulerKind::Mise;
    fatal("unknown scheduler '", s, "'");
}

/**
 * Dedicated flag loop for --scenario runs. The scenario file owns the
 * machine shape and workloads, so every single-system flag is a
 * conflict (exit 2), not a silent no-op.
 */
int
runScenarioMode(int argc, char **argv)
{
    std::string scen_path, out_dir, ckpt_out, restore_dir;
    Tick ckpt_every = 0, until = 0;
    SimulationConfig sim_cfg;
    bool dump_stats = false;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            usage(0);
        } else if (arg == "--scenario") {
            scen_path = need(i);
        } else if (arg == "--scenario-out") {
            out_dir = need(i);
        } else if (arg == "--scenario-until") {
            until = parse::positive(arg, need(i));
        } else if (arg == "--no-skip") {
            sim_cfg.skipAhead = false;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--checkpoint-out") {
            ckpt_out = need(i);
        } else if (arg == "--checkpoint-every") {
            ckpt_every = parse::positive(arg, need(i));
        } else if (arg == "--restore") {
            restore_dir = need(i);
        } else {
            usageError("--scenario cannot be combined with " + arg);
        }
    }
    if (ckpt_every > 0 && ckpt_out.empty())
        usageError("--checkpoint-every needs --checkpoint-out");

    cloud::ScenarioConfig sc;
    try {
        sc = cloud::parseScenarioFile(scen_path);
    } catch (const cloud::ScenarioError &e) {
        std::fprintf(stderr, "mitts_sim: %s\n", e.what());
        return 1;
    }
    if (until > 0 && until % sc.windowCycles != 0)
        usageError("--scenario-until must be a multiple of the "
                   "scenario window (" +
                   std::to_string(sc.windowCycles) + ")");
    if (ckpt_every > 0 && ckpt_every % sc.windowCycles != 0)
        usageError("--checkpoint-every must be a multiple of the "
                   "scenario window (" +
                   std::to_string(sc.windowCycles) + ")");

    std::unique_ptr<cloud::CloudEngine> eng;
    try {
        eng = std::make_unique<cloud::CloudEngine>(sc, out_dir,
                                                   sim_cfg);
    } catch (const cloud::ScenarioError &e) {
        std::fprintf(stderr, "mitts_sim: %s\n", e.what());
        return 1;
    }

    if (!restore_dir.empty()) {
        try {
            eng->restoreCheckpoint(restore_dir);
        } catch (const ckpt::Error &e) {
            std::fprintf(stderr,
                         "mitts_sim: cannot restore '%s': %s\n",
                         restore_dir.c_str(), e.what());
            return 2;
        }
        std::printf("restored %s at cycle %llu\n",
                    restore_dir.c_str(),
                    static_cast<unsigned long long>(eng->now()));
    }

    const Tick target = until > 0 ? until : sc.durationCycles;
    if (target < eng->now())
        usageError("--scenario-until is before the restored cycle");
    if (!ckpt_out.empty())
        std::filesystem::create_directories(ckpt_out);
    auto save_ckpt = [&](const std::string &tag) {
        try {
            eng->saveCheckpoint(ckpt_out + "/ckpt-" + tag);
        } catch (const ckpt::Error &e) {
            std::fprintf(stderr,
                         "mitts_sim: checkpoint failed: %s\n",
                         e.what());
            std::exit(2);
        }
    };
    Tick next_ckpt = kTickNever;
    if (ckpt_every > 0)
        next_ckpt = (eng->now() / ckpt_every + 1) * ckpt_every;
    while (eng->now() < target) {
        eng->runUntil(std::min(target, next_ckpt));
        if (eng->now() >= next_ckpt) {
            save_ckpt(std::to_string(eng->now()));
            next_ckpt += ckpt_every;
        }
    }
    if (!ckpt_out.empty()) {
        save_ckpt("final");
        std::printf("checkpoint: %s/ckpt-final\n", ckpt_out.c_str());
    }
    eng->finalizeTelemetry();

    if (out_dir.empty()) {
        std::ostringstream os;
        eng->writeSummary(os);
        os << "\n";
        eng->writeBillingCsv(os);
        std::fputs(os.str().c_str(), stdout);
    } else {
        std::filesystem::create_directories(out_dir);
        std::ofstream bill(out_dir + "/billing.csv");
        eng->writeBillingCsv(bill);
        std::ofstream summ(out_dir + "/summary.txt");
        eng->writeSummary(summ);
        std::ostringstream echo;
        eng->writeSummary(echo);
        std::fputs(echo.str().c_str(), stdout);
        std::printf("billing:  %s/billing.csv\n", out_dir.c_str());
    }
    if (dump_stats) {
        std::ostringstream ss;
        eng->dumpStats(ss);
        if (out_dir.empty()) {
            std::printf("\n---- statistics ----\n");
            std::fputs(ss.str().c_str(), stdout);
        } else {
            std::ofstream sf(out_dir + "/stats.txt");
            sf << ss.str();
            std::printf("stats:    %s/stats.txt\n", out_dir.c_str());
        }
    }
    return 0;
}

/** Flag loop and run of a single System (every non-scenario run). */
int
runSystemMode(int argc, char **argv)
{
    SystemConfig cfg;
    std::uint64_t instr_target = 200'000;
    Tick fixed_cycles = 0;
    bool dump_stats = false;
    bool analytic_backend = false;
    bool prefilter = false;
    std::string tune_objective;
    std::vector<std::uint32_t> bin_credits;
    double static_gbps = 0.0;
    std::string ckpt_out;
    Tick ckpt_every = 0;
    std::string restore_path;
    bool saw_no_skip = false, saw_sample_interval = false;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            usage(0);
        } else if (arg == "--version") {
            std::printf("mitts_sim %s (checkpoint format v%u)\n",
                        kToolVersion, ckpt::kFormatVersion);
            return 0;
        } else if (arg == "--list-apps") {
            for (const auto &name : allProfileNames()) {
                const AppProfile &p = appProfile(name);
                std::printf("%-14s threads=%u ws=%lluKiB\n",
                            name.c_str(), p.numThreads,
                            static_cast<unsigned long long>(
                                p.workingSetBytes / 1024));
            }
            return 0;
        } else if (arg == "--apps") {
            cfg.apps = parse::list(arg, need(i), ',');
        } else if (arg == "--backend") {
            const std::string b = need(i);
            if (b == "analytic")
                analytic_backend = true;
            else if (b != "cycle")
                usageError("--backend expects cycle or analytic, "
                           "got '" + b + "'");
        } else if (arg == "--prefilter") {
            prefilter = true;
        } else if (arg == "--sched") {
            cfg.sched = parseSched(need(i));
        } else if (arg == "--gate") {
            const std::string g = need(i);
            if (g == "mitts")
                cfg.gate = GateKind::Mitts;
            else if (g == "static")
                cfg.gate = GateKind::Static;
            else if (g == "none")
                cfg.gate = GateKind::None;
            else
                usageError("--gate expects none, mitts or static, "
                           "got '" + g + "'");
        } else if (arg == "--bins") {
            cfg.gate = GateKind::Mitts;
            for (const auto &tok : parse::list(arg, need(i), ','))
                bin_credits.push_back(
                    parse::uint<std::uint32_t>(arg, tok));
        } else if (arg == "--static-gbps") {
            cfg.gate = GateKind::Static;
            static_gbps =
                parse::finite(arg, need(i), 0.0, parse::Bound::Strict);
        } else if (arg == "--tune") {
            tune_objective = need(i);
            if (tune_objective != "throughput" &&
                tune_objective != "fairness")
                usageError("--tune expects throughput or fairness, "
                           "got '" + tune_objective + "'");
            cfg.gate = GateKind::Mitts;
        } else if (arg == "--instr") {
            instr_target = parse::positive(arg, need(i));
        } else if (arg == "--cycles") {
            fixed_cycles = parse::positive(arg, need(i));
        } else if (arg == "--llc") {
            cfg.llc.sizeBytes = parse::bytes(arg, need(i));
        } else if (arg == "--noc") {
            const auto dims = parse::list(arg, need(i), 'x');
            if (dims.size() != 2)
                usageError("--noc expects WxH");
            cfg.noc.enabled = true;
            cfg.noc.width = static_cast<unsigned>(
                parse::positive(arg, dims[0], kMaxUnsigned));
            cfg.noc.height = static_cast<unsigned>(
                parse::positive(arg, dims[1], kMaxUnsigned));
        } else if (arg == "--seed") {
            cfg.seed = parse::u64(arg, need(i));
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--no-skip") {
            saw_no_skip = true;
            cfg.sim.skipAhead = false;
        } else if (arg == "--telemetry-out") {
            cfg.telemetry.enabled = true;
            cfg.telemetry.outDir = need(i);
        } else if (arg == "--sample-interval") {
            saw_sample_interval = true;
            cfg.telemetry.enabled = true;
            cfg.telemetry.sampleInterval = parse::positive(arg, need(i));
        } else if (arg == "--trace-events") {
            cfg.telemetry.enabled = true;
            cfg.telemetry.traceEvents = true;
        } else if (arg == "--checkpoint-out") {
            ckpt_out = need(i);
        } else if (arg == "--checkpoint-every") {
            ckpt_every = parse::positive(arg, need(i));
        } else if (arg == "--restore") {
            restore_path = need(i);
        } else {
            usageError("unknown flag: " + arg);
        }
    }
    if (cfg.apps.empty())
        usageError("--apps is required");
    if (ckpt_every > 0 && ckpt_out.empty())
        usageError("--checkpoint-every needs --checkpoint-out");
    if (!tune_objective.empty() &&
        (!ckpt_out.empty() || !restore_path.empty()))
        usageError("--tune cannot be combined with checkpointing "
                   "(the GA runs many short-lived systems)");
    if (prefilter && tune_objective.empty())
        usageError("--prefilter only applies to --tune runs");
    if (analytic_backend) {
        // The analytic backend is closed-form: nothing is stepped,
        // checkpointed or sampled, so cycle-accurate-only flags are
        // user errors, not no-ops.
        if (!tune_objective.empty())
            usageError("--backend analytic cannot drive --tune; use "
                       "--prefilter to accelerate tuning instead");
        if (fixed_cycles > 0)
            usageError("--cycles only applies to the cycle-accurate "
                       "backend");
        if (dump_stats)
            usageError("--stats only applies to the cycle-accurate "
                       "backend");
        if (saw_no_skip)
            usageError("--no-skip only applies to the cycle-accurate "
                       "backend");
        if (cfg.telemetry.enabled)
            usageError(std::string(saw_sample_interval
                                       ? "--sample-interval"
                                       : "telemetry flags") +
                       " only apply to the cycle-accurate backend");
        if (!ckpt_out.empty() || ckpt_every > 0)
            usageError("checkpointing only applies to the "
                       "cycle-accurate backend");
        if (!restore_path.empty())
            usageError("--restore only applies to the cycle-accurate "
                       "backend");
    }
    if (cfg.telemetry.enabled && cfg.telemetry.outDir.empty())
        cfg.telemetry.outDir = "telemetry_out";

    // Core-count probes only inspect the topology; keep them from
    // touching the telemetry output directory.
    SystemConfig probe_cfg = cfg;
    probe_cfg.telemetry = telemetry::TelemetryOptions{};

    if (!bin_credits.empty()) {
        if (bin_credits.size() != cfg.binSpec.numBins)
            fatal("--bins expects ", cfg.binSpec.numBins, " values");
        BinConfig bc(cfg.binSpec, bin_credits);
        // The same purchased distribution on every core.
        System probe(probe_cfg);
        cfg.mittsConfigs.assign(probe.numCores(), bc);
    }
    if (static_gbps > 0.0) {
        System probe(probe_cfg);
        cfg.staticIntervals.assign(
            probe.numCores(), 64.0 * cfg.cpuGhz / static_gbps);
    }

    if (analytic_backend) {
        const analytic::AnalyticModel model;
        const auto res = model.evaluate(cfg);
        std::printf("%-14s %6s %10s %12s %10s\n", "app", "cores",
                    "GB/s", "latency", "slowdown");
        for (const auto &app : res.apps)
            std::printf("%-14s %6u %10.4f %12.2f %10.4f\n",
                        app.name.c_str(), app.cores,
                        app.bandwidthGBps, app.meanLatencyCycles,
                        app.slowdown);
        std::printf("S_avg=%.4f S_max=%.4f bus=%.3f iters=%u\n",
                    res.metrics.savg, res.metrics.smax,
                    res.busUtilization, res.iterations);
        return 0;
    }

    RunnerOptions opts;
    opts.instrTarget = instr_target;
    opts.maxCycles = 400 * instr_target;

    if (!tune_objective.empty()) {
        if (cfg.telemetry.enabled) {
            std::fprintf(stderr,
                         "note: telemetry flags are ignored with "
                         "--tune (the GA runs many systems)\n");
            cfg.telemetry = telemetry::TelemetryOptions{};
        }
        const Objective obj = tune_objective == "fairness"
                                  ? Objective::Fairness
                                  : Objective::Throughput;
        std::printf("computing alone-run baselines...\n");
        const auto alone = aloneCyclesForAll(cfg, opts);
        std::printf("running offline GA (%s)...\n",
                    objectiveName(obj));
        OfflineTunerOptions topts;
        topts.run = opts;
        topts.ga.populationSize = 12;
        topts.ga.generations = 6;
        topts.prefilter.enabled = prefilter;
        const auto tuned =
            tuneMultiProgram(cfg, alone, obj, 0, topts);
        std::printf("best configs:\n");
        for (std::size_t c = 0; c < tuned.best.size(); ++c)
            std::printf("  core %zu: %s\n", c,
                        tuned.best[c].toString().c_str());
        std::printf("S_avg=%.3f S_max=%.3f\n", tuned.metrics.savg,
                    tuned.metrics.smax);
        std::printf("evaluations: %llu cycle-accurate, %llu "
                    "analytic\n",
                    static_cast<unsigned long long>(
                        tuned.caEvaluations),
                    static_cast<unsigned long long>(
                        tuned.analyticEvaluations));
        return 0;
    }

    System sys(cfg);

    if (!restore_path.empty()) {
        try {
            sys.restoreCheckpoint(restore_path);
        } catch (const ckpt::Error &e) {
            std::fprintf(stderr,
                         "mitts_sim: cannot restore '%s': %s\n",
                         restore_path.c_str(), e.what());
            return 2;
        }
        std::printf("restored %s at cycle %llu\n",
                    restore_path.c_str(),
                    static_cast<unsigned long long>(sys.sim().now()));
    }

    if (!ckpt_out.empty())
        std::filesystem::create_directories(ckpt_out);
    auto ckpt_file = [&](const std::string &tag) {
        return (std::filesystem::path(ckpt_out) /
                ("ckpt-" + tag + ".mitts"))
            .string();
    };
    auto save_ckpt = [&](const std::string &tag) {
        try {
            sys.saveCheckpoint(ckpt_file(tag));
        } catch (const ckpt::Error &e) {
            std::fprintf(stderr, "mitts_sim: checkpoint failed: %s\n",
                         e.what());
            std::exit(2);
        }
    };
    // Periodic checkpoints land on absolute `ckpt_every` boundaries
    // (fixed-cycle runs) or the first batch boundary past them
    // (instruction-target runs), so a restored run schedules its next
    // checkpoint at the same cycle the uninterrupted run would.
    Tick next_ckpt = kTickNever;
    if (ckpt_every > 0)
        next_ckpt = (sys.sim().now() / ckpt_every + 1) * ckpt_every;
    if (ckpt_every > 0 && fixed_cycles == 0) {
        sys.setBatchCallback([&](Tick now) {
            if (now >= next_ckpt) {
                save_ckpt(std::to_string(now));
                while (next_ckpt <= now)
                    next_ckpt += ckpt_every;
            }
        });
    }

    if (fixed_cycles > 0) {
        // `--cycles N` is an absolute endpoint so a restored run
        // finishes at the same cycle as the run it resumes.
        const Tick end = fixed_cycles;
        if (sys.sim().now() > end)
            fatal("checkpoint is already past --cycles ", end);
        while (sys.sim().now() < end) {
            const Tick stop = std::min(end, next_ckpt);
            sys.run(stop - sys.sim().now());
            if (sys.sim().now() >= next_ckpt) {
                save_ckpt(std::to_string(sys.sim().now()));
                next_ckpt += ckpt_every;
            }
        }
        std::printf("%-14s %14s %10s\n", "app", "instructions",
                    "IPC/core");
        for (unsigned a = 0; a < sys.numApps(); ++a) {
            std::uint64_t instr = 0;
            for (CoreId c : sys.coresOfApp(a))
                instr += sys.core(c).instructions();
            std::printf("%-14s %14llu %10.3f\n",
                        sys.appName(a).c_str(),
                        static_cast<unsigned long long>(instr),
                        static_cast<double>(instr) /
                            static_cast<double>(fixed_cycles) /
                            static_cast<double>(
                                sys.coresOfApp(a).size()));
        }
    } else {
        const auto results =
            sys.runUntilInstructions(instr_target, opts.maxCycles);
        std::printf("%-14s %12s %12s %10s\n", "app", "cycles",
                    "mem-stalls", "IPC");
        for (const auto &r : results) {
            std::printf(
                "%-14s %12llu %12llu %10.3f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.completedAt),
                static_cast<unsigned long long>(r.memStallCycles),
                static_cast<double>(r.instructions) /
                    static_cast<double>(r.completedAt));
        }
    }

    if (!ckpt_out.empty()) {
        save_ckpt("final");
        std::printf("checkpoint: %s\n", ckpt_file("final").c_str());
    }

    if (dump_stats) {
        std::printf("\n---- statistics ----\n");
        std::ostringstream os;
        sys.dumpStats(os);
        std::fputs(os.str().c_str(), stdout);
    }

    if (sys.telemetry()) {
        sys.finalizeTelemetry();
        std::printf("telemetry: %s\n",
                    sys.telemetry()->csvPath().c_str());
        if (!sys.telemetry()->tracePath().empty())
            std::printf("trace:     %s  (open in chrome://tracing "
                        "or ui.perfetto.dev)\n",
                        sys.telemetry()->tracePath().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A malformed flag value surfaces as a ParseError naming the flag:
    // a usage error. Scenario-file errors are caught inside
    // runScenarioMode (exit 1).
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--scenario") == 0)
                return runScenarioMode(argc, argv);
        }
        return runSystemMode(argc, argv);
    } catch (const ParseError &e) {
        usageError(e.what());
    }
}
