// The one exempt file: the parser itself may convert text.
#include <cstdlib>

double
finite(const char *s)
{
    return std::strtod(s, nullptr);
}
