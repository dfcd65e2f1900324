/**
 * @file
 * Tests for the JSON/CSV statistics exporters.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/stats_export.hh"

namespace mitts
{
namespace
{

stats::Group
sampleGroup()
{
    stats::Group g("core.0");
    g.addCounter("hits").inc(42);
    g.addCounter("misses").inc(7);
    auto &avg = g.addAverage("latency");
    avg.sample(10);
    avg.sample(30);
    auto &h = g.addHistogram("inter_arrival", 4, 10.0);
    h.sample(5);
    h.sample(25);
    h.sample(999); // overflow
    return g;
}

TEST(StatsExport, JsonEscapeQuotesBackslashesAndControls)
{
    EXPECT_EQ(stats::jsonEscape("core.0"), "core.0");
    EXPECT_EQ(stats::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(stats::jsonEscape(std::string("\n\t\x01\x1f\0", 5)),
              "\\u000a\\u0009\\u0001\\u001f\\u0000");
    // DEL and UTF-8 bytes are valid inside a JSON string.
    EXPECT_EQ(stats::jsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(StatsExport, JsonContainsAllStats)
{
    const stats::Group g = sampleGroup();
    std::ostringstream os;
    stats::exportJson(os, {&g});
    const std::string j = os.str();
    EXPECT_NE(j.find("\"core.0\""), std::string::npos);
    EXPECT_NE(j.find("\"hits\": 42"), std::string::npos);
    EXPECT_NE(j.find("\"misses\": 7"), std::string::npos);
    EXPECT_NE(j.find("\"mean\": 20"), std::string::npos);
    EXPECT_NE(j.find("\"bins\": [1, 0, 1, 0]"), std::string::npos);
    EXPECT_NE(j.find("\"overflow\": 1"), std::string::npos);
}

TEST(StatsExport, JsonIsBalanced)
{
    const stats::Group a = sampleGroup();
    stats::Group b("llc");
    b.addCounter("evictions").inc(3);
    std::ostringstream os;
    stats::exportJson(os, {&a, &b});
    const std::string j = os.str();
    int depth = 0;
    for (char c : j) {
        depth += c == '{' ? 1 : 0;
        depth -= c == '}' ? 1 : 0;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    // Two top-level groups present.
    EXPECT_NE(j.find("\"llc\""), std::string::npos);
}

TEST(StatsExport, CsvRowsPerStat)
{
    const stats::Group g = sampleGroup();
    std::ostringstream os;
    stats::exportCsv(os, {&g});
    const std::string csv = os.str();
    EXPECT_NE(csv.find("group,stat,value\n"), std::string::npos);
    EXPECT_NE(csv.find("core.0,hits,42\n"), std::string::npos);
    EXPECT_NE(csv.find("core.0,latency,20\n"), std::string::npos);
}

TEST(StatsExport, EmptyGroupList)
{
    std::ostringstream os;
    stats::exportJson(os, {});
    EXPECT_EQ(os.str(), "{\n}\n");
}

} // namespace
} // namespace mitts
