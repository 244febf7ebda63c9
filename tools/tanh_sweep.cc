/**
 * @file
 * Exhaustive check of tensor::tanh: runs it over all 2^32 float bit
 * patterns and compares every result with std::tanh bit for bit (a NaN
 * matches any NaN). The kernel ports glibc 2.36's tanhf (DESIGN.md §18),
 * so on a glibc 2.36 host this proves the port exact; the tier-1 test
 * checks only a stride and the branch cuts. Takes no arguments and
 * splits the patterns over the hardware threads (about 30 s on 4 cores).
 *
 * Exit codes: 0 no mismatch, 1 at least one mismatch.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "tensor/activations.hh"

namespace {

constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
constexpr std::uint64_t kChunk = 4096;

/** Mismatches over the chunks worker @p w of @p workers owns. */
std::uint64_t
sweep(unsigned w, unsigned workers)
{
    std::vector<float> in(kChunk), out(kChunk);
    std::uint64_t bad = 0;
    for (std::uint64_t base = w * kChunk; base < kPatterns;
         base += workers * kChunk) {
        for (std::uint64_t j = 0; j < kChunk; ++j)
            in[j] = std::bit_cast<float>(static_cast<std::uint32_t>(base + j));
        mflstm::tensor::tanh(in, out);
        for (std::uint64_t j = 0; j < kChunk; ++j) {
            const float want = std::tanh(in[j]);
            if (std::bit_cast<std::uint32_t>(out[j]) ==
                    std::bit_cast<std::uint32_t>(want) ||
                (std::isnan(out[j]) && std::isnan(want)))
                continue;
            if (bad++ < 3)
                std::printf("tanh(%a) = %a, std::tanh %a\n", in[j], out[j],
                            want);
        }
    }
    return bad;
}

} // namespace

int
main()
{
    const unsigned workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&bad, w, workers] { bad += sweep(w, workers); });
    for (std::thread &t : pool)
        t.join();

    std::printf("tanh_sweep: %llu patterns on %u threads, %llu mismatches "
                "against std::tanh\n",
                static_cast<unsigned long long>(kPatterns), workers,
                static_cast<unsigned long long>(bad.load()));
    return bad.load() == 0 ? 0 : 1;
}
