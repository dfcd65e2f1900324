#include "base/parse.hh"

#include <charconv>
#include <cmath>

namespace mitts::parse
{

namespace
{

bool
allOf(std::string_view s, std::string_view alphabet)
{
    return !s.empty() &&
           s.find_first_not_of(alphabet) == std::string_view::npos;
}

std::string
quoted(std::string_view s)
{
    std::string q(1, '\'');
    q += s;
    q += '\'';
    return q;
}

/** from_chars over all of `s`; false unless every byte was used. */
template <typename T, typename... Fmt>
bool
whole(std::string_view s, T &v, Fmt... fmt)
{
    const char *end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v, fmt...);
    return r.ec == std::errc() && r.ptr == end;
}

} // namespace

void
fail(const std::string &ctx, const std::string &msg)
{
    throw ParseError(ctx + ": " + msg);
}

std::string
at(const std::string &path, unsigned line)
{
    return path + ":" + std::to_string(line);
}

std::string_view
trim(std::string_view s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return {};
    return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

std::uint64_t
u64(const std::string &ctx, std::string_view s, std::uint64_t max)
{
    if (!allOf(s, "0123456789"))
        fail(ctx, "expected a non-negative integer, got " + quoted(s));
    std::uint64_t v = 0;
    if (!whole(s, v) || v > max)
        fail(ctx, "integer out of range (max " + std::to_string(max) +
                      "): " + quoted(s));
    return v;
}

std::uint64_t
positive(const std::string &ctx, std::string_view s, std::uint64_t max)
{
    const std::uint64_t v = u64(ctx, s, max);
    if (v == 0)
        fail(ctx, "expected a positive integer, got " + quoted(s));
    return v;
}

std::uint64_t
hex64(const std::string &ctx, std::string_view s)
{
    std::uint64_t v = 0;
    if (s.size() > 16 || !allOf(s, "0123456789abcdefABCDEF") ||
        !whole(s, v, 16))
        fail(ctx, "expected 1 to 16 hex digits, got " + quoted(s));
    return v;
}

double
finite(const std::string &ctx, std::string_view s, double lo,
       Bound bound)
{
    double v = 0;
    if (!whole(s, v, std::chars_format::general) || !std::isfinite(v))
        fail(ctx, "expected a finite number, got " + quoted(s));
    const bool strict = bound == Bound::Strict;
    if (strict ? !(v > lo) : !(v >= lo))
        fail(ctx, std::string("expected a number ") +
                      (strict ? "> " : ">= ") + std::to_string(lo) +
                      ", got " + quoted(s));
    return v;
}

bool
boolean(const std::string &ctx, std::string_view s)
{
    if (s == "on" || s == "true" || s == "yes" || s == "1")
        return true;
    if (s == "off" || s == "false" || s == "no" || s == "0")
        return false;
    fail(ctx, "expected on/off, true/false, yes/no or 1/0, got " +
                  quoted(s));
}

std::size_t
bytes(const std::string &ctx, std::string_view s)
{
    std::size_t mul = 1;
    if (!s.empty()) {
        const char suffix = s.back();
        if (suffix == 'k' || suffix == 'K')
            mul = std::size_t{1} << 10;
        else if (suffix == 'm' || suffix == 'M')
            mul = std::size_t{1} << 20;
    }
    const std::string_view digits = s.substr(0, s.size() - (mul > 1));
    std::uint64_t n = 0;
    if (!allOf(digits, "0123456789"))
        fail(ctx, "expected a byte count N[kKmM], got " + quoted(s));
    if (!whole(digits, n) ||
        n > std::numeric_limits<std::size_t>::max() / mul)
        fail(ctx, "byte count out of range: " + quoted(s));
    return static_cast<std::size_t>(n) * mul;
}

std::vector<std::string>
list(const std::string &ctx, std::string_view s, char sep)
{
    std::vector<std::string> out;
    for (std::string_view rest = s;;) {
        const auto cut = rest.find(sep);
        const std::string_view item = trim(rest.substr(0, cut));
        if (item.empty())
            fail(ctx, "empty item in list " + quoted(s));
        out.emplace_back(item);
        if (cut == std::string_view::npos)
            return out;
        rest.remove_prefix(cut + 1);
    }
}

} // namespace mitts::parse
