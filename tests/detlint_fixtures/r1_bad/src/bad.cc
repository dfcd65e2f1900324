// R1 fixture: every class of banned nondeterminism source.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

unsigned long
seedFromHost()
{
    auto t = std::chrono::steady_clock::now();
    (void)t;
    std::random_device rd;
    srand(static_cast<unsigned>(time(nullptr)));
    return rd() + static_cast<unsigned long>(rand());
}
