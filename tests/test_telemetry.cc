/**
 * @file
 * Telemetry subsystem tests: probe registry lifecycle, sampler window
 * alignment (including the partial last window), trace-event JSON
 * well-formedness, and the telemetry-on == telemetry-off determinism
 * guarantee.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "system/system.hh"
#include "telemetry/probe.hh"
#include "telemetry/sampler.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_writer.hh"

namespace mitts
{
namespace
{

using telemetry::ProbeKind;
using telemetry::ProbeRegistry;
using telemetry::SamplerOptions;
using telemetry::TimeSeriesSampler;
using telemetry::TraceEventWriter;

// ---------------------------------------------------------------- //
// Probe registry lifecycle
// ---------------------------------------------------------------- //

TEST(ProbeRegistry, AddRemoveBumpVersionAndSize)
{
    ProbeRegistry reg;
    EXPECT_EQ(reg.size(), 0u);
    const auto v0 = reg.version();

    const auto id1 = reg.add("a", ProbeKind::Counter,
                             [](Tick) { return 1.0; });
    const auto id2 = reg.add("b", ProbeKind::Gauge,
                             [](Tick) { return 2.0; });
    EXPECT_NE(id1, id2);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_GT(reg.version(), v0);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "a");
    EXPECT_EQ(snap[0].kind, ProbeKind::Counter);
    EXPECT_EQ(snap[1].name, "b");
    EXPECT_EQ(snap[1].kind, ProbeKind::Gauge);

    const auto v1 = reg.version();
    reg.remove(id1);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_GT(reg.version(), v1);
    EXPECT_EQ(reg.snapshot()[0].name, "b");

    // Removing an unknown id is a no-op.
    const auto v2 = reg.version();
    reg.remove(9999);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.version(), v2);
}

TEST(ProbeRegistry, OwnerReleasesOnDestruction)
{
    ProbeRegistry reg;
    {
        telemetry::ProbeOwner owner;
        owner.attach(&reg);
        owner.add("x", ProbeKind::Counter, [](Tick) { return 0.0; });
        owner.add("y", ProbeKind::Gauge, [](Tick) { return 0.0; });
        EXPECT_EQ(reg.size(), 2u);
    }
    EXPECT_EQ(reg.size(), 0u);
}

TEST(ProbeRegistry, DetachedOwnerIsNoop)
{
    telemetry::ProbeOwner owner;
    EXPECT_FALSE(owner.attached());
    owner.add("x", ProbeKind::Counter, [](Tick) { return 0.0; });
    owner.release(); // must not crash
}

// ---------------------------------------------------------------- //
// Sampler windows
// ---------------------------------------------------------------- //

/** Parse the long-format CSV into (probe -> rows). */
struct CsvRow
{
    Tick start;
    Tick end;
    std::string kind;
    double value;
};

void
parseCsvInto(const std::string &text,
             std::map<std::string, std::vector<CsvRow>> &rows)
{
    std::istringstream is(text);
    std::string line;
    ASSERT_TRUE(std::getline(is, line)) << "empty CSV";
    EXPECT_EQ(line, "window_start,window_end,probe,kind,value");
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string s, e, probe, kind, value;
        ASSERT_TRUE(std::getline(ls, s, ','));
        ASSERT_TRUE(std::getline(ls, e, ','));
        ASSERT_TRUE(std::getline(ls, probe, ','));
        ASSERT_TRUE(std::getline(ls, kind, ','));
        ASSERT_TRUE(std::getline(ls, value, ','));
        rows[probe].push_back(CsvRow{std::stoull(s), std::stoull(e),
                                     kind, std::stod(value)});
    }
}

std::map<std::string, std::vector<CsvRow>>
csvRows(const std::string &text)
{
    std::map<std::string, std::vector<CsvRow>> rows;
    parseCsvInto(text, rows);
    return rows;
}

TEST(Sampler, WindowsAlignAndPartialLastWindowFlushes)
{
    ProbeRegistry reg;
    std::uint64_t count = 0;
    reg.add("events", ProbeKind::Counter, [&](Tick) {
        return static_cast<double>(count);
    });
    reg.add("level", ProbeKind::Gauge,
            [&](Tick now) { return static_cast<double>(now % 7); });

    std::ostringstream csv;
    SamplerOptions opts;
    opts.interval = 100;
    opts.ringWindows = 2; // force mid-run ring flushes
    TimeSeriesSampler sampler(reg, opts, &csv);

    // 3 events per cycle for 250 cycles: two full windows plus a
    // 50-cycle partial one.
    for (Tick t = 0; t < 250; ++t) {
        sampler.tick(t);
        count += 3;
    }
    sampler.finalize(250);

    EXPECT_EQ(sampler.windowsClosed(), 3u);
    const auto rows = csvRows(csv.str());
    ASSERT_EQ(rows.count("events"), 1u);
    const auto &ev = rows.at("events");
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_EQ(ev[0].start, 0u);
    EXPECT_EQ(ev[0].end, 100u);
    EXPECT_EQ(ev[1].start, 100u);
    EXPECT_EQ(ev[1].end, 200u);
    // Partial last window covers exactly the remaining cycles.
    EXPECT_EQ(ev[2].start, 200u);
    EXPECT_EQ(ev[2].end, 250u);

    // Counter deltas must sum to the end-of-run aggregate.
    double sum = 0;
    for (const auto &r : ev) {
        EXPECT_EQ(r.kind, "counter");
        sum += r.value;
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(count));

    // Gauges report instantaneous values at the window end.
    const auto &lv = rows.at("level");
    ASSERT_EQ(lv.size(), 3u);
    EXPECT_EQ(lv[0].kind, "gauge");
    EXPECT_DOUBLE_EQ(lv[0].value, 100 % 7);
    EXPECT_DOUBLE_EQ(lv[2].value, 250 % 7);
}

TEST(Sampler, FinalizeWithoutElapsedCyclesIsEmptyButValid)
{
    ProbeRegistry reg;
    reg.add("c", ProbeKind::Counter, [](Tick) { return 0.0; });
    std::ostringstream csv;
    TimeSeriesSampler sampler(reg, SamplerOptions{}, &csv);
    sampler.finalize(0);
    EXPECT_EQ(sampler.windowsClosed(), 0u);
    EXPECT_TRUE(csv.str().empty());
}

TEST(Sampler, MidRunProbeRegistrationKeepsSumsExact)
{
    ProbeRegistry reg;
    std::uint64_t a = 0, b = 0;
    reg.add("a", ProbeKind::Counter,
            [&](Tick) { return static_cast<double>(a); });

    std::ostringstream csv;
    SamplerOptions opts;
    opts.interval = 10;
    TimeSeriesSampler sampler(reg, opts, &csv);

    for (Tick t = 0; t < 20; ++t) {
        sampler.tick(t);
        ++a;
    }
    // New probe appears mid-run with a non-zero starting value; its
    // first window delta must still start from 0 so the column sum
    // equals the aggregate.
    b = 5;
    reg.add("b", ProbeKind::Counter,
            [&](Tick) { return static_cast<double>(b); });
    for (Tick t = 20; t < 40; ++t) {
        sampler.tick(t);
        ++a;
        ++b;
    }
    sampler.finalize(40);

    const auto rows = csvRows(csv.str());
    double sum_a = 0, sum_b = 0;
    for (const auto &r : rows.at("a"))
        sum_a += r.value;
    for (const auto &r : rows.at("b"))
        sum_b += r.value;
    EXPECT_DOUBLE_EQ(sum_a, static_cast<double>(a));
    EXPECT_DOUBLE_EQ(sum_b, static_cast<double>(b));
}

// ---------------------------------------------------------------- //
// Trace-event JSON
// ---------------------------------------------------------------- //

/** Minimal recursive-descent JSON parser (validation only). */
class JsonParser
{
  public:
    explicit JsonParser(std::string s) : s_(std::move(s)) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        const std::string l(lit);
        if (s_.compare(pos_, l.size(), l) != 0)
            return false;
        pos_ += l.size();
        return true;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string s_;
    std::size_t pos_ = 0;
};

std::size_t
countOccurrences(const std::string &haystack, const std::string &pat)
{
    std::size_t n = 0;
    for (std::size_t p = haystack.find(pat); p != std::string::npos;
         p = haystack.find(pat, p + pat.size()))
        ++n;
    return n;
}

TEST(TraceWriter, EmitsWellFormedJson)
{
    TraceEventWriter::Options opts;
    opts.cpuGhz = 2.0;
    TraceEventWriter w(opts);
    const int core = w.track("core.0");
    const int shaper = w.track("mitts.0");
    w.duration(core, "core", "mem_stall", 100, 250);
    w.duration(shaper, "shaper", "throttled", 120, 180);
    w.instant(shaper, "shaper", "replenish", 300);
    EXPECT_EQ(w.events(), 3u);
    EXPECT_EQ(w.dropped(), 0u);

    std::ostringstream os;
    w.write(os);
    const std::string json = os.str();

    JsonParser parser(json);
    EXPECT_TRUE(parser.parse()) << json;

    // Two thread_name metadata records + the three events.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"M\""), 2u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 2u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"i\""), 1u);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("core.0"), std::string::npos);
    // 150 cycles at 2 GHz = 75 ns = 0.075 us duration.
    EXPECT_NE(json.find("\"dur\":0.0750"), std::string::npos);
}

TEST(TraceWriter, BoundedBufferCountsDrops)
{
    TraceEventWriter::Options opts;
    opts.maxEvents = 4;
    TraceEventWriter w(opts);
    const int t = w.track("t");
    for (Tick i = 0; i < 10; ++i)
        w.instant(t, "c", "n", i);
    EXPECT_EQ(w.events(), 4u);
    EXPECT_EQ(w.dropped(), 6u);
    std::ostringstream os;
    w.write(os);
    JsonParser parser(os.str());
    EXPECT_TRUE(parser.parse());
}

TEST(TraceWriter, TrackNamesAreJsonEscaped)
{
    TraceEventWriter w(TraceEventWriter::Options{});
    w.track("core \"0\"\\x");
    std::ostringstream os;
    w.write(os);
    EXPECT_NE(os.str().find("\"name\":\"core \\\"0\\\"\\\\x\""),
              std::string::npos)
        << os.str();
    JsonParser parser(os.str());
    EXPECT_TRUE(parser.parse());
}

// ---------------------------------------------------------------- //
// System integration
// ---------------------------------------------------------------- //

SystemConfig
telemetryMix()
{
    SystemConfig cfg = SystemConfig::multiProgram(
        {"gcc", "mcf", "libquantum", "sjeng"});
    cfg.gate = GateKind::Mitts;
    cfg.seed = 42;
    return cfg;
}

TEST(TelemetrySystem, WindowSumsMatchAggregates)
{
    SystemConfig cfg = telemetryMix();
    cfg.telemetry.enabled = true; // in-memory CSV
    cfg.telemetry.sampleInterval = 5'000;
    System sys(cfg);
    sys.run(42'500); // deliberately not a multiple of the interval
    sys.finalizeTelemetry();

    const auto rows = csvRows(sys.telemetry()->csvText());
    ASSERT_FALSE(rows.empty());

    const std::map<std::string, std::uint64_t> expected{
        {"llc.misses", sys.llc().misses()},
        {"llc.hits", sys.llc().hits()},
        {"mc.completed_reads", sys.memController().completed()},
        {"core.0.instructions", sys.core(0).instructions()},
        {"core.3.mem_stall_cycles", sys.core(3).memStallCycles()},
    };
    for (const auto &[probe, total] : expected) {
        ASSERT_EQ(rows.count(probe), 1u) << probe;
        double sum = 0;
        for (const auto &r : rows.at(probe))
            sum += r.value;
        EXPECT_DOUBLE_EQ(sum, static_cast<double>(total)) << probe;
    }

    // The partial last window must end exactly at the run's end.
    const auto &any = rows.begin()->second;
    EXPECT_EQ(any.back().end, 42'500u);
}

TEST(TelemetrySystem, OnOffBitIdentical)
{
    SystemConfig off = telemetryMix();
    SystemConfig on = telemetryMix();
    on.telemetry.enabled = true;
    on.telemetry.sampleInterval = 1'000;
    on.telemetry.traceEvents = true;

    System sys_off(off);
    System sys_on(on);
    sys_off.run(30'000);
    sys_on.run(30'000);

    std::ostringstream stats_off, stats_on;
    sys_off.dumpStats(stats_off);
    sys_on.dumpStats(stats_on);
    EXPECT_EQ(stats_off.str(), stats_on.str());
    for (unsigned c = 0; c < sys_off.numCores(); ++c) {
        EXPECT_EQ(sys_off.core(c).instructions(),
                  sys_on.core(c).instructions());
    }
    // And the instrumented run actually recorded something.
    EXPECT_GT(sys_on.telemetry()->sampler().windowsClosed(), 0u);
    EXPECT_GT(sys_on.telemetry()->trace()->events(), 0u);
}

TEST(TelemetrySystem, TraceJsonFromFullSystemParses)
{
    SystemConfig cfg = telemetryMix();
    cfg.telemetry.enabled = true;
    cfg.telemetry.traceEvents = true;
    cfg.telemetry.sampleInterval = 2'000;
    System sys(cfg);
    sys.run(20'000);
    sys.finalizeTelemetry();

    std::ostringstream os;
    sys.telemetry()->trace()->write(os);
    JsonParser parser(os.str());
    EXPECT_TRUE(parser.parse());
}

TEST(TelemetrySystem, TunerProbesAppearWhenAttached)
{
    SystemConfig cfg = telemetryMix();
    cfg.telemetry.enabled = true;
    cfg.telemetry.sampleInterval = 2'000;
    System sys(cfg);
    const std::size_t before = sys.telemetry()->probes().size();
    EXPECT_GT(before, 0u);
    auto snap = sys.telemetry()->probes().snapshot();
    bool has_shaper = false;
    for (const auto &p : snap)
        has_shaper |= p.name.rfind("mitts.", 0) == 0;
    EXPECT_TRUE(has_shaper);
}

} // namespace
} // namespace mitts
