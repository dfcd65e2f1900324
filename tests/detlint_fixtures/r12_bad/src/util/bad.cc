// Raw text-to-number calls outside src/base/parse.cc.
#include <cstdlib>
#include <string>

unsigned long long
a(const std::string &s)
{
    return std::stoull(s);
}

double
b(const char *s)
{
    return std::strtod(s, nullptr) + ::atof(s);
}

long
c(const char *s)
{
    return atol(s) + std :: stoi (std::string(s));
}
