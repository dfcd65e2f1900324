// Look-alikes that are not raw conversions: a comment naming
// std::stoull(s), a string literal, member calls, another
// namespace's function and longer identifiers. (Fixture text only;
// it is never compiled.)
#include <string>

long
f(Reader &r, Reader *p, const char *s)
{
    const std::string msg = "do not call atoi(s) or std::stod(s)";
    return r.stol(10) + p->stol(16) + fmt::atoi(s) + restoi(1) +
           static_cast<long>(msg.size());
}
