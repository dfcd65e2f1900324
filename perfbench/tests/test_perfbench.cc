/**
 * @file
 * Tests of the benchmark's own code: the tail-percentile rule, the
 * decorators' faithful forwarding, and the result-line schema against
 * BENCHMARK.json.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "decorators.hh"
#include "stats.hh"
#include "system/system.hh"
#include "tracer.hh"

using namespace perfbench;

namespace
{

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // unsorted on purpose
    return v;
}

} // namespace

// ---- tail-percentile rule -------------------------------------------

TEST(TailPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(99, 90), 9u);
    EXPECT_EQ(tailPercentile(iota(99)).pct, 0.0);

    const Tail p90 = tailPercentile(iota(100));
    EXPECT_EQ(p90.pct, 90.0);
    EXPECT_EQ(p90.value, 90.0);

    EXPECT_EQ(tailPercentile(iota(199)).pct, 90.0);
    EXPECT_EQ(tailPercentile(iota(200)).pct, 95.0);
    EXPECT_EQ(tailPercentile(iota(1000)).pct, 99.0);
    const Tail p999 = tailPercentile(iota(10000));
    EXPECT_EQ(p999.pct, 99.9);
    EXPECT_EQ(p999.value, 9990.0);
}

TEST(TailPercentile, MedianAndNearestRank)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(percentile(iota(10), 50), 5.0);
    EXPECT_EQ(percentile(iota(10), 100), 10.0);
}

// ---- decorators forward faithfully -----------------------------------

namespace
{

/** Four apps under a tight MITTS gate with skip-ahead on: the gate
 *  refuses most cycles, so nextIssueTick, onSkippedStalls and the
 *  scheduler's nextWakeTick all decide what the run does. */
mitts::SystemConfig
gatedConfig(std::shared_ptr<TraceHook> hook)
{
    mitts::SystemConfig cfg = mitts::SystemConfig::multiProgram(
        {"mcf", "libquantum", "omnetpp", "astar"});
    cfg.sim.skipAhead = true;
    cfg.gate = mitts::GateKind::Mitts;
    cfg.mittsConfigs.assign(
        4, mitts::BinConfig::singleBin(cfg.binSpec,
                                       cfg.binSpec.numBins - 1, 10));
    installTraceFactory(cfg, std::move(hook));
    return cfg;
}

std::string
dump(const mitts::System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

} // namespace

TEST(Decorators, DecoratedRunMatchesUndecorated)
{
    constexpr mitts::Tick kCycles = 300'000;
    auto plainHook = std::make_shared<TraceHook>();
    mitts::System plain(gatedConfig(plainHook));
    plain.run(kCycles);

    Tracer tracer;
    auto hook = std::make_shared<TraceHook>();
    hook->tracer = &tracer;
    mitts::System traced(gatedConfig(hook));
    Decorations deco(traced, tracer);
    traced.run(kCycles);

    EXPECT_EQ(dump(plain), dump(traced));
    // Skipping depends on the forwarded wake claims: the gate's
    // nextIssueTick and the scheduler's nextWakeTick.
    EXPECT_GT(plain.sim().cyclesSkipped(), 0u);
    EXPECT_EQ(plain.sim().cyclesSkipped(), traced.sim().cyclesSkipped());

    const DecoratorCounts n = deco.counts();
    EXPECT_GT(n.gateWakePolls, 0u);
    EXPECT_GT(n.gateGrants, 0u);
    EXPECT_GT(n.llcOffers, 0u);
    EXPECT_GT(n.mcOffers, 0u);
    for (const Layer l : {Layer::TraceNext, Layer::CoreLoadComplete,
                          Layer::GateTryIssue, Layer::LlcPush,
                          Layer::McPush, Layer::SchedPick})
        EXPECT_GT(tracer.aggregate(l).calls, 0u) << layerName(l);
}

TEST(Decorators, TracedSystemRestoresUntracedCheckpoint)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("perfbench_test_" + std::to_string(::getpid()) + ".mitts"))
            .string();
    auto plainHook = std::make_shared<TraceHook>();
    mitts::System straight(gatedConfig(plainHook));
    straight.run(100'000);
    straight.saveCheckpoint(path);
    straight.run(100'000);

    Tracer tracer;
    auto hook = std::make_shared<TraceHook>();
    hook->tracer = &tracer;
    mitts::System resumed(gatedConfig(hook));
    resumed.restoreCheckpoint(path);
    Decorations deco(resumed, tracer);
    resumed.run(100'000);
    std::filesystem::remove(path);

    EXPECT_EQ(dump(straight), dump(resumed));
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer t;
    t.beginStep(0);
    t.begin(Layer::GateTryIssue, 7);
    t.begin(Layer::LlcPush);
    t.end();
    t.end();
    t.endStep();
    const auto &outer = t.aggregate(Layer::GateTryIssue);
    const auto &inner = t.aggregate(Layer::LlcPush);
    EXPECT_EQ(outer.calls, 1u);
    EXPECT_EQ(outer.selfNs + inner.totalNs, outer.totalNs);
    ASSERT_EQ(t.spans().size(), 3u);
    // Spans close innermost first; each names its parent.
    EXPECT_EQ(t.spans()[0].parent, t.spans()[1].id);
    EXPECT_EQ(t.spans()[1].parent, t.spans()[2].id);
    EXPECT_EQ(t.spans()[1].request, 7u);
    EXPECT_EQ(t.spans()[2].parent, 0u);
}

TEST(Tracer, KeepsBoundedSpans)
{
    constexpr int kSpansPerStep = 2500;
    Tracer t;
    const auto runSteps = [&](std::uint64_t from, std::uint64_t to) {
        for (std::uint64_t step = from; step < to; ++step) {
            t.beginStep(step);
            for (int i = 0; i < kSpansPerStep; ++i) {
                t.begin(Layer::TraceNext);
                t.end();
            }
            t.endStep();
        }
    };
    // Steps 0 and 32 are sampled, each up to the per-step limit
    // (its parent span included).
    runSteps(0, 2 * kSampleEvery);
    EXPECT_EQ(t.spans().size(), 2 * kPerStep);
    // Twelve sampled steps would keep more than the overall limit.
    runSteps(2 * kSampleEvery, 12 * kSampleEvery);
    EXPECT_EQ(t.aggregate(Layer::TraceNext).calls,
              12 * kSampleEvery * kSpansPerStep);
    EXPECT_EQ(t.spans().size(), kMaxSpans);
}

// ---- output schema ---------------------------------------------------

namespace
{

/** (name, unit) pairs of one metric array in BENCHMARK.json. */
std::vector<std::pair<std::string, std::string>>
benchmarkMetrics(const std::string &key)
{
    std::ifstream in(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto start = text.find("\"" + key + "\"");
    const auto end = text.find(']', start);
    const std::string section = text.substr(start, end - start);
    const std::regex entry(
        "\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = std::sregex_iterator(section.begin(), section.end(),
                                        entry);
         it != std::sregex_iterator(); ++it)
        out.emplace_back((*it)[1], (*it)[2]);
    return out;
}

std::vector<std::pair<std::string, std::string>>
catalogue(const std::vector<MetricDef> &defs)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &d : defs)
        out.emplace_back(d.name, d.unit);
    return out;
}

Report
fullReport(bool trace)
{
    Report r;
    r.attempted = 3;
    for (const auto &d : trace ? perLayerMetrics() : endToEndMetrics())
        r.metrics[d.name] = 1.25;
    return r;
}

} // namespace

TEST(Schema, CatalogueMatchesBenchmarkJson)
{
    EXPECT_EQ(catalogue(endToEndMetrics()),
              benchmarkMetrics("end_to_end"));
    EXPECT_EQ(catalogue(perLayerMetrics()),
              benchmarkMetrics("per_layer"));
}

TEST(Schema, ResultLineHasExactlyTheCatalogue)
{
    for (const bool trace : {false, true}) {
        std::ostringstream os;
        writeResultJson(os, fullReport(trace), trace);
        const std::string line = os.str();
        EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, "
                             "\"failed\": 0, \"metrics\": {",
                             0),
                  0u);
        EXPECT_EQ(line.back(), '\n');
        EXPECT_EQ(line.find('\n'), line.size() - 1);
        const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
        std::size_t entries = 0;
        for (std::size_t p = 0;
             (p = line.find("\"value\": ", p)) != std::string::npos; ++p)
            ++entries;
        EXPECT_EQ(entries, defs.size());
        for (const auto &d : defs) {
            EXPECT_NE(line.find(std::string("\"") + d.name +
                                "\": {\"value\": 1.25, \"unit\": \"" +
                                d.unit + "\"}"),
                      std::string::npos)
                << d.name;
        }
    }
}

TEST(Schema, MissingMetricOrFailureIsReported)
{
    Report r = fullReport(false);
    r.metrics.erase("wall_s");
    std::ostringstream os;
    EXPECT_THROW(writeResultJson(os, r, false), std::logic_error);

    Report bad = fullReport(false);
    bad.failed = 1;
    std::ostringstream os2;
    writeResultJson(os2, bad, false);
    EXPECT_EQ(os2.str().rfind("{\"correct\": false", 0), 0u);
}
