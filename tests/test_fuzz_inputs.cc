/**
 * @file
 * Deterministic mutation fuzzing of every text input format: the
 * committed scenario and sweep files and a journal written here are
 * mutated by byte flips, truncations and splices of hostile tokens
 * (`-1`, `nan`, `1e999`, 2^64), with a fixed seed and a fixed number
 * of cases. The property: a parser returns a valid object or throws
 * ParseError; any other exception, a crash or a hang fails the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/parse.hh"
#include "base/random.hh"
#include "cloud/scenario.hh"
#include "orchestrate/journal.hh"
#include "orchestrate/sweep_spec.hh"

namespace mitts
{
namespace
{

namespace fs = std::filesystem;

constexpr unsigned kCasesPerSeed = 20000;

const char *const kTokens[] = {"-1", "nan", "1e999",
                               "18446744073709551616"};

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Seeds: every file of one committed input directory. */
std::vector<std::string>
seedsIn(const char *dir)
{
    std::vector<fs::path> paths;
    for (const auto &e : fs::directory_iterator(
             fs::path(MITTS_SOURCE_DIR) / dir))
        paths.push_back(e.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> out;
    for (const auto &p : paths)
        out.push_back(readFile(p));
    return out;
}

/** One to four mutations of `s`. */
std::string
mutate(std::string s, Random &rng)
{
    const unsigned n = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned k = 0; k < n; ++k) {
        const std::size_t at = rng.below(s.size() + 1);
        switch (rng.below(4)) {
          case 0: // flip one byte
            if (at < s.size())
                s[at] = static_cast<char>(rng.below(256));
            break;
          case 1: // truncate
            s.resize(at);
            break;
          case 2: // splice a hostile token in
            s.insert(at, kTokens[rng.below(4)]);
            break;
          default: { // overwrite the token under `at`
            const auto b = s.find_last_of(" =,:\n", at ? at - 1 : 0);
            const auto e = s.find_first_of(" ,:\n#", at);
            const std::size_t from = b == std::string::npos ? 0 : b + 1;
            s.replace(from,
                      (e == std::string::npos ? s.size() : e) - from,
                      kTokens[rng.below(4)]);
            break;
          }
        }
    }
    return s;
}

struct Outcomes
{
    unsigned accepted = 0;
    unsigned rejected = 0;
};

/** Run `parse` on `kCasesPerSeed` mutants of each seed. */
template <typename Fn>
Outcomes
fuzz(const std::vector<std::string> &seeds, std::uint64_t seed,
     Fn parse)
{
    Outcomes out;
    Random rng(seed);
    for (const auto &base : seeds) {
        for (unsigned i = 0; i < kCasesPerSeed; ++i) {
            const std::string text = mutate(base, rng);
            try {
                parse(text);
                ++out.accepted;
            } catch (const ParseError &) {
                ++out.rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "non-ParseError exception: " << e.what()
                              << "\n--- input ---\n"
                              << text;
                return out;
            }
        }
    }
    return out;
}

// Both outcomes must occur, or the mutator is not reaching the
// parser's interesting paths.
TEST(FuzzInputs, ScenarioFiles)
{
    const auto seeds = seedsIn("scenarios");
    ASSERT_FALSE(seeds.empty());
    const Outcomes o = fuzz(seeds, 1, [](const std::string &text) {
        std::istringstream in(text);
        cloud::parseScenario(in, "fuzz.scn");
    });
    EXPECT_GT(o.accepted, 0u);
    EXPECT_GT(o.rejected, 0u);
}

TEST(FuzzInputs, SweepFiles)
{
    const auto seeds = seedsIn("sweeps");
    ASSERT_FALSE(seeds.empty());
    const Outcomes o = fuzz(seeds, 2, [](const std::string &text) {
        std::istringstream in(text);
        const auto spec = orchestrate::parseSweep(in, "fuzz.sweep");
        orchestrate::validateSweep(spec);
        // A valid spec must survive its own canonical text.
        std::istringstream again(orchestrate::specToText(spec));
        EXPECT_EQ(orchestrate::specToText(
                      orchestrate::parseSweep(again, "round-trip")),
                  orchestrate::specToText(spec));
    });
    EXPECT_GT(o.accepted, 0u);
    EXPECT_GT(o.rejected, 0u);
}

TEST(FuzzInputs, JournalRecovery)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("mitts_fuzz_journal_" +
                          std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string path = (dir / "journal.log").string();
    {
        orchestrate::Journal j(path);
        for (std::uint64_t i = 0; i < 8; ++i)
            j.append(i, 0x9E3779B97F4A7C15ULL * (i + 1));
    }
    const std::string base = readFile(path);
    // Recovery never throws: it keeps the well-formed prefix, at
    // most one entry per newline-terminated line.
    const Outcomes o = fuzz({base}, 3, [&](const std::string &text) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        const orchestrate::Journal j(path);
        EXPECT_LE(j.recovered().size(),
                  static_cast<std::size_t>(
                      std::count(text.begin(), text.end(), '\n')));
    });
    EXPECT_EQ(o.accepted, kCasesPerSeed);
    fs::remove_all(dir);
}

/** The token-level parsers on random strings over their alphabets:
 *  whatever they accept must re-read to the same value. */
TEST(FuzzInputs, TokenParsers)
{
    Random rng(4);
    const std::string alphabet = "0123456789-+.eExXkKmMnaif ,:";
    for (unsigned i = 0; i < 4 * kCasesPerSeed; ++i) {
        std::string s;
        const std::size_t len = rng.below(24);
        for (std::size_t k = 0; k < len; ++k)
            s += alphabet[rng.below(alphabet.size())];
        try {
            const std::uint64_t v = parse::u64("t", s);
            EXPECT_EQ(parse::u64("t", std::to_string(v)), v) << s;
            EXPECT_EQ(s.find_first_not_of("0123456789"),
                      std::string::npos)
                << s;
        } catch (const ParseError &) {
        }
        try {
            parse::bytes("t", s);
            EXPECT_EQ(s.find_first_not_of("0123456789kKmM"),
                      std::string::npos)
                << s;
        } catch (const ParseError &) {
        }
        try {
            const double d = parse::finite("t", s);
            EXPECT_TRUE(std::isfinite(d)) << s;
        } catch (const ParseError &) {
        }
        try {
            for (const auto &item : parse::list("t", s, ','))
                EXPECT_FALSE(parse::trim(item).empty()) << s;
        } catch (const ParseError &) {
        }
    }
}

} // namespace
} // namespace mitts
