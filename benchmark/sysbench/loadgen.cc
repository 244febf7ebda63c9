#include "sysbench/loadgen.hh"

#include <cmath>
#include <random>
#include <thread>

namespace mflstm {
namespace sysbench {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // anonymous namespace

std::uint64_t
deriveSeed(std::uint64_t seed, std::string_view tag)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : tag) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    std::uint64_t s = splitmix64(seed ^ splitmix64(h));
    if (s >= 101 && s <= 106)
        s += 1000;
    return s;
}

std::vector<std::int64_t>
poissonSchedule(double rate_per_s, double duration_s, std::uint64_t seed)
{
    std::vector<std::int64_t> due;
    if (rate_per_s <= 0.0 || duration_s <= 0.0)
        return due;
    due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) +
                16);
    std::mt19937_64 rng(seed);
    const double end_ns = duration_s * 1e9;
    double t_ns = 0.0;
    for (;;) {
        const double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
        t_ns += -std::log1p(-u) / rate_per_s * 1e9;
        if (t_ns >= end_ns)
            break;
        due.push_back(static_cast<std::int64_t>(t_ns));
    }
    return due;
}

void
waitUntil(SteadyClock::time_point due)
{
    constexpr auto kSpin = std::chrono::microseconds(200);
    for (;;) {
        const auto now = SteadyClock::now();
        if (now >= due)
            return;
        if (due - now > kSpin)
            std::this_thread::sleep_for(due - now - kSpin);
    }
}

} // namespace sysbench
} // namespace mflstm
