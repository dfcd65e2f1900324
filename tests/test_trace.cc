/**
 * @file
 * Unit tests for workload profiles and the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "trace/app_profile.hh"
#include "trace/synth_trace.hh"
#include "trace/trace_io.hh"

namespace mitts
{
namespace
{

TEST(AppProfile, KnownBenchmarksExist)
{
    for (const char *name :
         {"mcf", "libquantum", "omnetpp", "bzip", "gcc", "astar",
          "gobmk", "sjeng", "h264ref", "hmmer", "apache", "bhm",
          "x264", "ferret", "blackscholes", "canneal",
          "streamcluster", "fluidanimate", "lib"}) {
        const AppProfile &p = appProfile(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.memFraction, 0.0);
        EXPECT_LE(p.memFraction, 1.0);
        EXPECT_GE(p.workingSetBytes, p.hotSetBytes);
    }
}

TEST(AppProfile, IntensityOrdering)
{
    // The cornerstone of the paper's results: mcf/libquantum/omnetpp
    // are memory intensive, sjeng/gobmk are not.
    EXPECT_GT(appProfile("mcf").memFraction *
                  (1 - appProfile("mcf").hotFraction),
              appProfile("sjeng").memFraction *
                  (1 - appProfile("sjeng").hotFraction));
    EXPECT_GT(appProfile("libquantum").workingSetBytes,
              appProfile("gobmk").workingSetBytes);
}

TEST(AppProfile, BurstyAppsAreBursty)
{
    EXPECT_GT(appProfile("mcf").burstEnterProb, 0.0);
    EXPECT_GT(appProfile("apache").idleFraction, 0.0);
    EXPECT_EQ(appProfile("libquantum").burstEnterProb, 0.0);
}

TEST(AppProfile, ThreadedProfiles)
{
    EXPECT_EQ(appProfile("x264").numThreads, 4u);
    EXPECT_EQ(appProfile("ferret").numThreads, 4u);
    EXPECT_EQ(appProfile("mcf").numThreads, 1u);
}

TEST(AppProfile, WorkloadsMatchTable3)
{
    EXPECT_EQ(workloadApps(1),
              (std::vector<std::string>{"gcc", "libquantum", "bzip",
                                        "mcf"}));
    EXPECT_EQ(workloadApps(4).size(), 8u);
    EXPECT_EQ(workloadApps(6).front(), "apache");
}

TEST(SynthTrace, Deterministic)
{
    const AppProfile &p = appProfile("gcc");
    SyntheticTrace a(p, 0, 42), b(p, 0, 42);
    for (int i = 0; i < 2000; ++i) {
        const TraceOp x = a.next();
        const TraceOp y = b.next();
        EXPECT_EQ(x.gap, y.gap);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.isWrite, y.isWrite);
    }
}

TEST(SynthTrace, ResetReplays)
{
    const AppProfile &p = appProfile("mcf");
    SyntheticTrace t(p, 0, 7);
    std::vector<Addr> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(t.next().addr);
    t.reset();
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(t.next().addr, first[i]);
}

TEST(SynthTrace, AddressesWithinWorkingSet)
{
    const AppProfile &p = appProfile("bzip");
    const Addr base = 1ULL << 30;
    SyntheticTrace t(p, base, 3);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = t.next().addr;
        EXPECT_GE(a, base);
        EXPECT_LT(a, base + p.workingSetBytes);
    }
}

TEST(SynthTrace, MemIntensityScalesWithProfile)
{
    auto mean_gap = [](const std::string &name) {
        SyntheticTrace t(appProfile(name), 0, 5);
        double total = 0;
        for (int i = 0; i < 20000; ++i)
            total += t.next().gap;
        return total / 20000;
    };
    // sjeng is CPU bound: much larger gaps than mcf.
    EXPECT_GT(mean_gap("sjeng"), mean_gap("mcf"));
}

TEST(SynthTrace, StreamingProfileIsSequential)
{
    // Stream-following = same block (word-granularity stream) or the
    // next block.
    auto stream_pairs = [](const std::string &name) {
        SyntheticTrace t(appProfile(name), 0, 9);
        int n = 0;
        Addr prev = kAddrInvalid;
        for (int i = 0; i < 20000; ++i) {
            const Addr a = t.next().addr;
            if (i > 0 && (a == prev || a == prev + kBlockBytes))
                ++n;
            prev = a;
        }
        return n;
    };
    // streamcluster should show far more stream-following pairs than
    // a pointer chaser (canneal's warm tier also produces short
    // sequential runs, so the margin is 2x, not an order of
    // magnitude).
    EXPECT_GT(stream_pairs("streamcluster"),
              2 * stream_pairs("canneal"));
}

TEST(SynthTrace, ServerProfilesHaveIdleGaps)
{
    SyntheticTrace t(appProfile("apache"), 0, 13);
    std::uint32_t max_gap = 0;
    for (int i = 0; i < 50000; ++i)
        max_gap = std::max(max_gap, t.next().gap);
    EXPECT_GE(max_gap, appProfile("apache").idleGapInstrs);
}

TEST(SynthTrace, ThreadsDiffer)
{
    const AppProfile &p = appProfile("x264");
    SyntheticTrace t0(p, 0, 11, 0), t1(p, 0, 12, 1);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += t0.next().addr == t1.next().addr;
    EXPECT_LT(same, 100);
}

TEST(ScriptedTrace, LoopsAndResets)
{
    ScriptedTrace t({{1, false, false, 0x40}, {2, true, false, 0x80}});
    EXPECT_EQ(t.next().addr, 0x40u);
    EXPECT_EQ(t.next().addr, 0x80u);
    EXPECT_EQ(t.next().addr, 0x40u); // loops
    t.reset();
    EXPECT_EQ(t.next().addr, 0x40u);
}

TEST(AppProfile, AllProfileNamesNonEmpty)
{
    const auto names = allProfileNames();
    EXPECT_GE(names.size(), 18u);
    std::set<std::string> uniq(names.begin(), names.end());
    EXPECT_EQ(uniq.size(), names.size());
}


TEST(TraceIo, SaveLoadRoundTrip)
{
    SyntheticTrace src(appProfile("mcf"), 0, 42);
    const std::string path = "/tmp/mitts_test_trace.txt";
    saveTrace(path, src, 500);

    FileTrace replay(path);
    EXPECT_EQ(replay.size(), 500u);

    // Replaying yields exactly what the generator produced.
    SyntheticTrace ref(appProfile("mcf"), 0, 42);
    for (int i = 0; i < 500; ++i) {
        const TraceOp a = ref.next();
        const TraceOp b = replay.next();
        EXPECT_EQ(a.gap, b.gap);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.isWrite, b.isWrite);
        EXPECT_EQ(a.dependsOnPrev, b.dependsOnPrev);
    }
}

TEST(TraceIo, FileTraceLoopsAndResets)
{
    FileTrace t(std::vector<TraceOp>{{1, false, false, 0x40},
                                     {2, true, true, 0x80}});
    EXPECT_EQ(t.next().addr, 0x40u);
    EXPECT_EQ(t.next().addr, 0x80u);
    EXPECT_EQ(t.next().addr, 0x40u);
    t.reset();
    const TraceOp op0 = t.next();
    EXPECT_EQ(op0.addr, 0x40u);
    EXPECT_FALSE(op0.dependsOnPrev);
}

TEST(TraceIo, RecordingTraceTees)
{
    ScriptedTrace inner({{3, false, false, 0x100}});
    RecordingTrace rec(inner);
    rec.next();
    rec.next();
    ASSERT_EQ(rec.log().size(), 2u);
    EXPECT_EQ(rec.log()[0].addr, 0x100u);
    rec.reset();
    EXPECT_TRUE(rec.log().empty());
}


TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(loadTrace("/nonexistent/path/trace.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoDeath, BadHeaderIsFatal)
{
    const std::string path = "/tmp/mitts_bad_trace.txt";
    {
        std::ofstream out(path);
        out << "not-a-trace\n1 0 0 64\n";
    }
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "bad header");
}

/** Write a trace file whose op lines are `lines`; returns its path. */
std::string
writeTrace(const std::string &name, const std::string &lines)
{
    const std::string path = "/tmp/mitts_" + name + ".txt";
    std::ofstream(path) << "mitts-trace-v1\n" << lines;
    return path;
}

TEST(TraceIoDeath, MalformedMiddleLineNamesItsLine)
{
    const std::string path = writeTrace(
        "trace_bad_middle", "1 0 0 64\n2 1 0 128\n3 0 x 192\n4 0 0 256\n");
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "trace_bad_middle.txt:4: .*'x'");
}

TEST(TraceIoDeath, TrailingJunkNamesItsLine)
{
    const std::string path =
        writeTrace("trace_junk", "1 0 0 64\n2 1 0 128 junk\n");
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "trace_junk.txt:3: ");
}

TEST(TraceIoDeath, OutOfRangeFieldsAreFatal)
{
    // A gap that does not fit 32 bits, a flag that is not 0/1.
    EXPECT_EXIT(loadTrace(writeTrace("trace_gap", "4294967296 0 0 64\n")),
                ::testing::ExitedWithCode(1), "trace_gap.txt:2: ");
    EXPECT_EXIT(loadTrace(writeTrace("trace_flag", "1 2 0 64\n")),
                ::testing::ExitedWithCode(1), "trace_flag.txt:2: ");
}

TEST(AppProfileDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(appProfile("no-such-benchmark"),
                ::testing::ExitedWithCode(1), "unknown application");
}

TEST(AppProfileDeath, BadWorkloadIdIsFatal)
{
    EXPECT_EXIT(workloadApps(7), ::testing::ExitedWithCode(1),
                "workload id");
}

} // namespace
} // namespace mitts
