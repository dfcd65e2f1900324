// Tests are covered too.
#include <string>

double
d(const std::string &s)
{
    return std::stod(s);
}
