/**
 * @file
 * Sweep orchestration: frame protocol round-trips, spec
 * parse/serialize round-trips, grid expansion order, result-cache
 * integrity (collision, corruption, round-trip), journal recovery
 * (torn tail), and worker-evaluation determinism.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "orchestrate/frame.hh"
#include "orchestrate/journal.hh"
#include "orchestrate/orchestrator.hh"
#include "orchestrate/result_cache.hh"
#include "orchestrate/sweep_spec.hh"
#include "orchestrate/worker.hh"

namespace mitts::orchestrate
{
namespace
{

std::string
tmpDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeAll(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size()));
}

SweepSpec
smallGrid()
{
    SweepSpec spec;
    spec.name = "t";
    spec.mode = SweepMode::Grid;
    spec.apps = {"mcf", "libquantum"};
    spec.instr = 2000;
    spec.schedAxis = {"frfcfs", "tcm"};
    spec.seedAxis = {1, 2, 3};
    validateSweep(spec);
    return spec;
}

// --- frame protocol -----------------------------------------------------

TEST(Frame, PipeRoundTrip)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    std::string payload;
    putU64(payload, 42);
    putStr(payload, "hello");
    putU32(payload, 7);
    ASSERT_TRUE(writeFrame(fds[1], MsgType::Result, payload));
    ASSERT_TRUE(writeFrame(fds[1], MsgType::Shutdown, ""));
    ::close(fds[1]);

    Frame f;
    ASSERT_TRUE(readFrame(fds[0], f));
    EXPECT_EQ(f.type, MsgType::Result);
    std::size_t pos = 0;
    EXPECT_EQ(getU64(f.payload, pos), 42u);
    EXPECT_EQ(getStr(f.payload, pos), "hello");
    EXPECT_EQ(getU32(f.payload, pos), 7u);
    EXPECT_EQ(pos, f.payload.size());

    ASSERT_TRUE(readFrame(fds[0], f));
    EXPECT_EQ(f.type, MsgType::Shutdown);
    EXPECT_TRUE(f.payload.empty());

    // Clean EOF after the last frame.
    EXPECT_FALSE(readFrame(fds[0], f));
    ::close(fds[0]);
}

TEST(Frame, TruncationMidFrameThrows)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Header promising 100 bytes, then EOF.
    const unsigned char hdr[4] = {100, 0, 0, 0};
    ASSERT_EQ(::write(fds[1], hdr, 4), 4);
    ::close(fds[1]);
    Frame f;
    EXPECT_THROW(readFrame(fds[0], f), FrameError);
    ::close(fds[0]);
}

TEST(Frame, ReaderReassemblesSplitFrames)
{
    std::string payload(1000, 'x');
    std::string wire;
    putU32(wire, static_cast<std::uint32_t>(payload.size() + 1));
    wire.push_back(static_cast<char>(MsgType::Unit));
    wire += payload;
    putU32(wire, 1);
    wire.push_back(static_cast<char>(MsgType::Shutdown));

    // Feed one byte at a time: frames must pop out intact.
    FrameReader r;
    std::vector<Frame> got;
    for (char c : wire) {
        r.feed(&c, 1);
        while (auto f = r.next())
            got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, MsgType::Unit);
    EXPECT_EQ(got[0].payload, payload);
    EXPECT_EQ(got[1].type, MsgType::Shutdown);
    EXPECT_EQ(r.pendingBytes(), 0u);
}

TEST(Frame, OversizedLengthRejected)
{
    FrameReader r;
    std::string wire;
    putU32(wire, kMaxFrameBytes + 1);
    r.feed(wire.data(), wire.size());
    EXPECT_THROW(r.next(), FrameError);
}

TEST(Frame, GetterThrowsOnShortPayload)
{
    const std::string s = "abc";
    std::size_t pos = 0;
    EXPECT_THROW(getU64(s, pos), FrameError);
}

// --- sweep spec ---------------------------------------------------------

TEST(SweepSpec, ParseSerializeRoundTrip)
{
    std::istringstream in(R"(# comment
name  = demo
mode  = grid
apps  = mcf,libquantum
instr = 4000
seed  = 99
gate  = mitts
sweep sched = frfcfs,tcm
sweep seed  = 1,2
sweep bins  = 8:8:8:8:8:8:8:8:8:8,1024:0:0:0:0:0:0:0:0:0
)");
    const SweepSpec spec = parseSweep(in, "test");
    validateSweep(spec);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.apps.size(), 2u);
    EXPECT_EQ(spec.seed, 99u);
    EXPECT_EQ(unitCount(spec), 8u);

    // Canonical text parses back to an identical spec.
    const std::string text = specToText(spec);
    std::istringstream in2(text);
    const SweepSpec again = parseSweep(in2, "round-trip");
    EXPECT_EQ(specToText(again), text);
}

SweepSpec
parseSweepText(const std::string &text)
{
    std::istringstream in(text);
    return parseSweep(in, "test");
}

TEST(SweepSpec, RejectsNegativeIntegers)
{
    // Would wrap to near 2^64 if negated modulo 2^64.
    EXPECT_THROW(parseSweepText("instr = -100\n"), SweepError);
    EXPECT_THROW(parseSweepText("seed = -1\n"), SweepError);
    EXPECT_THROW(parseSweepText("sweep seed = 1,-2\n"), SweepError);
}

TEST(SweepSpec, RejectsIntegersThatOverflowUnsigned)
{
    // 2^32 + 1 would truncate to 1, a valid value.
    EXPECT_THROW(parseSweepText("generations = 4294967297\n"),
                 SweepError);
    EXPECT_THROW(parseSweepText("population = 4294967297\n"),
                 SweepError);
    EXPECT_EQ(parseSweepText("population = 4294967295\n").population,
              4294967295u);
}

TEST(SweepSpec, UnitOrderRowMajorLastAxisFastest)
{
    const SweepSpec spec = smallGrid();
    ASSERT_EQ(unitCount(spec), 6u);
    // sched is the slowest axis, seed the fastest of the two.
    const UnitSpec u0 = unitAt(spec, 0);
    const UnitSpec u2 = unitAt(spec, 2);
    const UnitSpec u3 = unitAt(spec, 3);
    EXPECT_EQ(u0.sched, SchedulerKind::Frfcfs);
    EXPECT_EQ(u0.seed, 1u);
    EXPECT_EQ(u2.seed, 3u);
    EXPECT_EQ(u3.sched, SchedulerKind::Tcm);
    EXPECT_EQ(u3.seed, 1u);
}

TEST(SweepSpec, ValidateRejectsNonsense)
{
    SweepSpec spec = smallGrid();
    spec.apps = {"no-such-app"};
    EXPECT_THROW(validateSweep(spec), SweepError);

    spec = smallGrid();
    spec.schedAxis = {"warp-drive"};
    EXPECT_THROW(validateSweep(spec), SweepError);

    // bins axis without a mitts gate is meaningless.
    spec = smallGrid();
    spec.binsAxis = {{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}};
    EXPECT_THROW(validateSweep(spec), SweepError);

    // tune mode owns the whole config: grid axes are an error.
    spec = smallGrid();
    spec.mode = SweepMode::Tune;
    spec.gate = GateKind::Mitts;
    EXPECT_THROW(validateSweep(spec), SweepError);
}

TEST(SweepSpec, CacheKeySensitivity)
{
    const SweepSpec spec = smallGrid();
    const UnitSpec a = unitAt(spec, 0);
    const UnitSpec b = unitAt(spec, 1);
    EXPECT_NE(unitCacheKey(spec, a), unitCacheKey(spec, b));
    EXPECT_NE(unitDesc(spec, a), unitDesc(spec, b));

    // A different instruction target changes the key too.
    SweepSpec longer = spec;
    longer.instr = spec.instr * 2;
    EXPECT_NE(unitCacheKey(spec, a),
              unitCacheKey(longer, unitAt(longer, 0)));
}

// --- result cache -------------------------------------------------------

TEST(ResultCache, RoundTripByteIdentical)
{
    ResultCache cache(tmpDir("orch_cache_rt"));
    const std::string payload("line one\nline two\n\x01\x02\xFF", 22);
    cache.store(0xABCDEF, "desc v1", payload);

    auto got = cache.lookup(0xABCDEF, "desc v1");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
    EXPECT_EQ(cache.stats.hits, 1u);
    EXPECT_EQ(cache.stats.rejected, 0u);
}

TEST(ResultCache, MissOnAbsentKey)
{
    ResultCache cache(tmpDir("orch_cache_miss"));
    EXPECT_FALSE(cache.lookup(1, "x").has_value());
    EXPECT_EQ(cache.stats.misses, 1u);
    EXPECT_EQ(cache.stats.rejected, 0u);
}

TEST(ResultCache, DescriptionMismatchRejectedAsCollision)
{
    ResultCache cache(tmpDir("orch_cache_coll"));
    cache.store(7, "unit 0 sched=frfcfs cfg=aaaa", "payload");
    // Same key, different config description: must never be served.
    EXPECT_FALSE(
        cache.lookup(7, "unit 0 sched=tcm cfg=bbbb").has_value());
    EXPECT_EQ(cache.stats.rejected, 1u);
    // The honest description still hits.
    EXPECT_TRUE(
        cache.lookup(7, "unit 0 sched=frfcfs cfg=aaaa").has_value());
}

TEST(ResultCache, CorruptedEntryTreatedAsMiss)
{
    ResultCache cache(tmpDir("orch_cache_bad"));
    cache.store(9, "d", "the payload");
    const std::string path = cache.entryPath(9);

    // Flip one payload byte: CRC must catch it.
    std::string data = readAll(path);
    data[data.size() / 2] =
        static_cast<char>(data[data.size() / 2] ^ 0x40);
    writeAll(path, data);
    EXPECT_FALSE(cache.lookup(9, "d").has_value());
    EXPECT_EQ(cache.stats.rejected, 1u);

    // Truncation.
    writeAll(path, readAll(path).substr(0, 10));
    EXPECT_FALSE(cache.lookup(9, "d").has_value());

    // Garbage magic.
    writeAll(path, "NOTMITTSRES and then some bytes............");
    EXPECT_FALSE(cache.lookup(9, "d").has_value());

    // Re-simulation overwrites the rotten entry and it hits again.
    cache.store(9, "d", "the payload");
    auto got = cache.lookup(9, "d");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "the payload");
}

// --- journal ------------------------------------------------------------

TEST(Journal, AppendAndRecover)
{
    const std::string dir = tmpDir("orch_journal");
    const std::string path = dir + "/journal.log";
    {
        Journal j(path);
        EXPECT_TRUE(j.recovered().empty());
        j.append(0, 0x1111);
        j.append(5, 0xABCDEF0123456789ull);
    }
    Journal j2(path);
    ASSERT_EQ(j2.recovered().size(), 2u);
    EXPECT_EQ(j2.recovered()[0].index, 0u);
    EXPECT_EQ(j2.recovered()[0].key, 0x1111u);
    EXPECT_EQ(j2.recovered()[1].index, 5u);
    EXPECT_EQ(j2.recovered()[1].key, 0xABCDEF0123456789ull);
}

TEST(Journal, TornTailDropped)
{
    const std::string dir = tmpDir("orch_journal_torn");
    const std::string path = dir + "/journal.log";
    {
        Journal j(path);
        j.append(1, 0xAA);
        j.append(2, 0xBB);
    }
    // Simulate dying mid-append: an unterminated partial line.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "done 3 00000000000";
    }
    Journal j2(path);
    ASSERT_EQ(j2.recovered().size(), 2u);
    EXPECT_EQ(j2.recovered()[1].index, 2u);

    // Appending after recovery produces a well-formed file again.
    j2.append(4, 0xCC);
}

TEST(Journal, MalformedLineStopsReplay)
{
    const std::string dir = tmpDir("orch_journal_bad");
    const std::string path = dir + "/journal.log";
    writeAll(path, "done 1 00000000000000aa\n"
                   "gibberish line\n"
                   "done 2 00000000000000bb\n");
    // Replay stops at the first malformed line; later entries are
    // ignored (the orchestrator just re-queues those units).
    Journal j(path);
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].key, 0xAAu);
}

// --- worker evaluation --------------------------------------------------

TEST(Worker, UnitRecordDeterministicAndCacheExact)
{
    const SweepSpec spec = [] {
        SweepSpec s;
        s.apps = {"mcf", "libquantum"};
        s.instr = 2000;
        s.seedAxis = {1, 2};
        validateSweep(s);
        return s;
    }();

    const std::string dir1 = tmpDir("orch_worker_a");
    const std::string dir2 = tmpDir("orch_worker_b");
    WorkerContext w1(spec, dir1);
    WorkerContext w2(spec, dir2);

    // Same unit, independent processes-worth of state: identical
    // bytes (this is the whole determinism contract in miniature).
    const std::string r1 = w1.evaluateUnit(0);
    EXPECT_EQ(r1, w2.evaluateUnit(0));
    EXPECT_NE(r1, w1.evaluateUnit(1));

    // The record's first line is the unit description.
    const UnitSpec u = unitAt(spec, 0);
    EXPECT_EQ(r1.substr(0, r1.find('\n')), unitDesc(spec, u));

    // Round-trip through the cache is byte-exact.
    ResultCache cache(dir1);
    cache.store(unitCacheKey(spec, u), unitDesc(spec, u), r1);
    auto got =
        cache.lookup(unitCacheKey(spec, u), unitDesc(spec, u));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, r1);
}

TEST(Worker, FitnessPayloadBitExact)
{
    const double values[] = {0.3322333423496529, 1e-300, -0.0,
                             3.141592653589793};
    for (const double v : values) {
        double back = 0;
        ASSERT_TRUE(fitnessFromPayload(fitnessToPayload(v), back));
        EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
            << "fitness " << v << " not bit-exact";
    }
    double out = 0;
    EXPECT_FALSE(fitnessFromPayload("not hex", out));
    EXPECT_FALSE(fitnessFromPayload("", out));
}

// --- orchestrator outputs -----------------------------------------------

TEST(Orchestrator, SummaryJsonEscapesSweepName)
{
    const SweepSpec spec = parseSweepText("name = a\"b\\c\n"
                                          "apps = mcf,libquantum\n"
                                          "instr = 2000\n"
                                          "sweep seed = 1\n");
    validateSweep(spec);
    ASSERT_EQ(spec.name, "a\"b\\c");
    OrchestratorOptions opts;
    opts.cacheDir = tmpDir("orch_escape_cache");
    opts.outDir = tmpDir("orch_escape_out");
    runSweep(spec, opts);
    const std::string js = readAll(opts.outDir + "/summary.json");
    EXPECT_EQ(js.rfind("{\n  \"name\": \"a\\\"b\\\\c\",\n", 0), 0u)
        << js;
}

} // namespace
} // namespace mitts::orchestrate
