#include "support/cache.hh"

#include <algorithm>
#include <stdexcept>

namespace mflstm {
namespace test {

namespace {

bool
isPowerOfTwo(std::size_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // anonymous namespace

SetAssocCache::SetAssocCache(std::size_t capacity_bytes, unsigned assoc,
                             unsigned line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    if (assoc == 0 || line_bytes == 0)
        throw std::invalid_argument("SetAssocCache: zero assoc or line");
    if (capacity_bytes % (static_cast<std::size_t>(assoc) * line_bytes))
        throw std::invalid_argument(
            "SetAssocCache: capacity not divisible by way size");

    sets_ = capacity_bytes / (static_cast<std::size_t>(assoc) * line_bytes);
    if (!isPowerOfTwo(sets_) || !isPowerOfTwo(line_bytes))
        throw std::invalid_argument(
            "SetAssocCache: sets and line size must be powers of two");
    ways_.resize(sets_ * assoc_);
}

bool
SetAssocCache::access(std::uint64_t addr)
{
    ++clock_;
    const std::uint64_t line = addr / lineBytes_;
    const std::size_t set = line & (sets_ - 1);
    const std::uint64_t tag = line / sets_;

    Way *base = &ways_[set * assoc_];
    Way *victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = clock_;
            ++hits_;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock_;
    ++misses_;
    return false;
}

void
SetAssocCache::accessRange(std::uint64_t addr, std::size_t size)
{
    if (size == 0)
        return;
    const std::uint64_t first = addr / lineBytes_;
    const std::uint64_t last = (addr + size - 1) / lineBytes_;
    for (std::uint64_t line = first; line <= last; ++line)
        access(line * lineBytes_);
}

void
SetAssocCache::reset()
{
    std::fill(ways_.begin(), ways_.end(), Way{});
    clock_ = 0;
    hits_ = 0;
    misses_ = 0;
}

double
SetAssocCache::missRate() const
{
    const std::size_t total = accesses();
    return total ? static_cast<double>(misses_) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace test
} // namespace mflstm
