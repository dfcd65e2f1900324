/**
 * @file
 * The one input grammar (DESIGN.md "Input parsing"). Every number,
 * switch, list and size read as text is parsed here; every rejection
 * is a ParseError whose message starts with the caller's context,
 * `path:line` for files, the flag or variable name otherwise. No
 * parser accepts a `+`, a sign on an unsigned value, surrounding
 * whitespace or a base prefix, and none wraps an out-of-range value.
 */

#ifndef MITTS_BASE_PARSE_HH
#define MITTS_BASE_PARSE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mitts
{

/** Malformed or out-of-range input; what() is `<context>: <reason>`. */
class ParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace parse
{

/** Throw ParseError("<ctx>: <msg>"). */
[[noreturn]] void fail(const std::string &ctx, const std::string &msg);

/** Context string for line `line` of file `path`: "path:line". */
std::string at(const std::string &path, unsigned line);

/** Decimal unsigned integer no larger than `max`. */
std::uint64_t u64(const std::string &ctx, std::string_view s,
                  std::uint64_t max =
                      std::numeric_limits<std::uint64_t>::max());

/** As u64(), but zero is rejected too. */
std::uint64_t positive(const std::string &ctx, std::string_view s,
                       std::uint64_t max =
                           std::numeric_limits<std::uint64_t>::max());

/** u64() bounded by, and narrowed to, an unsigned type T. */
template <typename T>
T
uint(const std::string &ctx, std::string_view s)
{
    return static_cast<T>(u64(ctx, s, std::numeric_limits<T>::max()));
}

/** One to sixteen hex digits (journal keys, frame payloads). */
std::uint64_t hex64(const std::string &ctx, std::string_view s);

/** Whether a number's lower bound is itself allowed. */
enum class Bound
{
    Inclusive, ///< value >= lo
    Strict,    ///< value > lo
};

/** Finite decimal number above `lo` (NaN and infinities never pass;
 *  the default bound admits every finite value). */
double finite(const std::string &ctx, std::string_view s,
              double lo = std::numeric_limits<double>::lowest(),
              Bound bound = Bound::Inclusive);

/** on/true/yes/1 or off/false/no/0. */
bool boolean(const std::string &ctx, std::string_view s);

/** Byte count `N[kKmM]` (k = KiB, m = MiB) that fits size_t. */
std::size_t bytes(const std::string &ctx, std::string_view s);

/** `s` without leading and trailing blanks (space, tab, CR). */
std::string_view trim(std::string_view s);

/** Split at `sep` and trim blanks around each item; an empty item
 *  (`a,,b`, a trailing `,`, an empty `s`) is rejected. */
std::vector<std::string> list(const std::string &ctx,
                              std::string_view s, char sep);

} // namespace parse
} // namespace mitts

#endif // MITTS_BASE_PARSE_HH
