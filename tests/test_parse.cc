/**
 * @file
 * Boundaries of every base/parse grammar: what each parser accepts
 * at the edges of its range, and that everything else is rejected
 * with a ParseError that starts with the caller's context.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/parse.hh"

namespace mitts
{
namespace
{

// Spellings no numeric parser may accept.
const std::vector<std::string> kNeverNumbers = {
    "", " 1", "1 ", "+1", "0x10", "nan", "inf", "-inf", "1,2", "1_000",
};

TEST(ParseU64, Boundaries)
{
    EXPECT_EQ(parse::u64("c", "0"), 0u);
    EXPECT_EQ(parse::u64("c", "007"), 7u);
    EXPECT_EQ(parse::u64("c", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_THROW(parse::u64("c", "18446744073709551616"), ParseError);
    EXPECT_THROW(parse::u64("c", "99999999999999999999999"),
                 ParseError);
    EXPECT_THROW(parse::u64("c", "-0"), ParseError);
    EXPECT_THROW(parse::u64("c", "-1"), ParseError);
    EXPECT_THROW(parse::u64("c", "1e3"), ParseError);
    EXPECT_THROW(parse::u64("c", "1.5"), ParseError);
    for (const auto &s : kNeverNumbers)
        EXPECT_THROW(parse::u64("c", s), ParseError) << "'" << s << "'";
}

TEST(ParseU64, CallerBound)
{
    EXPECT_EQ(parse::u64("c", "255", 256), 255u);
    EXPECT_EQ(parse::u64("c", "256", 256), 256u);
    EXPECT_THROW(parse::u64("c", "257", 256), ParseError);
    EXPECT_EQ(parse::uint<unsigned>("c", "4294967295"), 4294967295u);
    EXPECT_THROW(parse::uint<unsigned>("c", "4294967296"), ParseError);
    EXPECT_EQ(parse::uint<std::uint32_t>("c", "0"), 0u);
}

TEST(ParsePositive, RejectsZero)
{
    EXPECT_THROW(parse::positive("c", "0"), ParseError);
    EXPECT_THROW(parse::positive("c", "00"), ParseError);
    EXPECT_EQ(parse::positive("c", "1"), 1u);
    EXPECT_EQ(parse::positive("c", "256", 256), 256u);
    EXPECT_THROW(parse::positive("c", "257", 256), ParseError);
    EXPECT_EQ(parse::positive("c", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_THROW(parse::positive("c", "18446744073709551616"),
                 ParseError);
    for (const auto &s : kNeverNumbers)
        EXPECT_THROW(parse::positive("c", s), ParseError) << s;
}

TEST(ParseHex64, Boundaries)
{
    EXPECT_EQ(parse::hex64("c", "0"), 0u);
    EXPECT_EQ(parse::hex64("c", "ffffffffffffffff"),
              18446744073709551615ull);
    EXPECT_EQ(parse::hex64("c", "FFFFFFFFFFFFFFFF"),
              18446744073709551615ull);
    EXPECT_EQ(parse::hex64("c", "0000000000000010"), 16u);
    EXPECT_EQ(parse::hex64("c", "1e3"), 0x1e3u); // digits, not a float
    EXPECT_THROW(parse::hex64("c", "10000000000000000"), ParseError);
    EXPECT_THROW(parse::hex64("c", "-0"), ParseError);
    EXPECT_THROW(parse::hex64("c", "g"), ParseError);
    for (const auto &s : kNeverNumbers)
        EXPECT_THROW(parse::hex64("c", s), ParseError) << s;
}

TEST(ParseFinite, Boundaries)
{
    EXPECT_EQ(parse::finite("c", "0"), 0.0);
    EXPECT_EQ(parse::finite("c", "-0"), 0.0);
    EXPECT_EQ(parse::finite("c", "1e3"), 1000.0);
    EXPECT_EQ(parse::finite("c", "1.5"), 1.5);
    EXPECT_EQ(parse::finite("c", "-2.5e-1"), -0.25);
    EXPECT_EQ(parse::finite("c", "18446744073709551616"), 0x1p64);
    EXPECT_EQ(parse::finite("c", "1.7976931348623157e308"),
              std::numeric_limits<double>::max());
    EXPECT_THROW(parse::finite("c", "1e999"), ParseError);
    EXPECT_THROW(parse::finite("c", "-1e999"), ParseError);
    EXPECT_THROW(parse::finite("c", "1e"), ParseError);
    EXPECT_THROW(parse::finite("c", "."), ParseError);
    for (const auto &s : kNeverNumbers)
        EXPECT_THROW(parse::finite("c", s), ParseError) << s;
}

TEST(ParseFinite, LowerBound)
{
    using parse::Bound;
    EXPECT_EQ(parse::finite("c", "0", 0.0), 0.0);
    EXPECT_EQ(parse::finite("c", "-0", 0.0), 0.0);
    EXPECT_THROW(parse::finite("c", "-1e-300", 0.0), ParseError);
    EXPECT_THROW(parse::finite("c", "0", 0.0, Bound::Strict),
                 ParseError);
    EXPECT_THROW(parse::finite("c", "-0", 0.0, Bound::Strict),
                 ParseError);
    EXPECT_EQ(parse::finite("c", "1e-300", 0.0, Bound::Strict),
              1e-300);
    EXPECT_THROW(parse::finite("c", "1", 1.0, Bound::Strict),
                 ParseError);
    EXPECT_EQ(parse::finite("c", "1.0000000000000002", 1.0,
                            Bound::Strict),
              std::nextafter(1.0, 2.0));
    EXPECT_EQ(parse::finite("c", "1", 1.0), 1.0);
    EXPECT_THROW(parse::finite("c", "0.9999999999999999", 1.0),
                 ParseError);
}

TEST(ParseBoolean, EverySpelling)
{
    for (const char *s : {"on", "true", "yes", "1"})
        EXPECT_TRUE(parse::boolean("c", s)) << s;
    for (const char *s : {"off", "false", "no", "0"})
        EXPECT_FALSE(parse::boolean("c", s)) << s;
    for (const char *s : {"", "ON", "True", "2", "-0", "+1", " 1", "1 ",
                          "y", "n", "0x1", "nan", "inf"})
        EXPECT_THROW(parse::boolean("c", s), ParseError) << s;
}

TEST(ParseBytes, SuffixesAndRange)
{
    EXPECT_EQ(parse::bytes("c", "0"), 0u);
    EXPECT_EQ(parse::bytes("c", "4096"), 4096u);
    EXPECT_EQ(parse::bytes("c", "2k"), 2048u);
    EXPECT_EQ(parse::bytes("c", "2K"), 2048u);
    EXPECT_EQ(parse::bytes("c", "1m"), 1048576u);
    EXPECT_EQ(parse::bytes("c", "1M"), 1048576u);
    EXPECT_EQ(parse::bytes("c", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_THROW(parse::bytes("c", "18446744073709551616"), ParseError);
    // (2^64 - 1) / 2^20 MiB is the largest that fits.
    EXPECT_EQ(parse::bytes("c", "17592186044415m"),
              17592186044415ull << 20);
    EXPECT_THROW(parse::bytes("c", "17592186044416m"), ParseError);
    EXPECT_THROW(parse::bytes("c", "18014398509481984k"), ParseError);
    for (const char *s : {"1.5m", "2kxyz", "2kb", "2mk", "k", "m", "-1",
                          "-0", "1g", "1e3"})
        EXPECT_THROW(parse::bytes("c", s), ParseError) << s;
    for (const auto &s : kNeverNumbers)
        EXPECT_THROW(parse::bytes("c", s), ParseError) << s;
}

TEST(ParseList, TrimsAndRejectsEmptyItems)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(parse::list("c", "a", ','), V{"a"});
    EXPECT_EQ(parse::list("c", "a,b", ','), (V{"a", "b"}));
    EXPECT_EQ(parse::list("c", " a ,\tb ", ','), (V{"a", "b"}));
    EXPECT_EQ(parse::list("c", "4x4", 'x'), (V{"4", "4"}));
    for (const char *s : {"", " ", "a,,b", "a,", ",a", "a, ,b"})
        EXPECT_THROW(parse::list("c", s, ','), ParseError) << s;
}

TEST(ParseContext, MessageStartsWithContext)
{
    const std::string ctx = parse::at("specs/a.sweep", 7);
    EXPECT_EQ(ctx, "specs/a.sweep:7");
    try {
        parse::u64(ctx, "-1");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(std::string(e.what()).rfind("specs/a.sweep:7: ", 0),
                  0u)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'-1'"), std::string::npos);
    }
    try {
        parse::bytes("--llc", "nan");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(std::string(e.what()).rfind("--llc: ", 0), 0u);
    }
}

} // namespace
} // namespace mitts
