/**
 * @file
 * Exact LRU set-associative cache simulated on an address stream: the
 * oracle the analytic streaming-reuse model (gpu/cache.hh) is checked
 * against at unit scale, and the tests' demonstration of the Section
 * III observation (a weight matrix larger than the L2 thrashes it, so
 * the data actually loaded is many times the matrix size).
 */

#ifndef MFLSTM_TESTS_SUPPORT_CACHE_HH
#define MFLSTM_TESTS_SUPPORT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mflstm {
namespace test {

/** Exact LRU set-associative cache over 64-bit byte addresses. */
class SetAssocCache
{
  public:
    SetAssocCache(std::size_t capacity_bytes, unsigned assoc,
                  unsigned line_bytes);

    /** Access one byte address; @return true on hit. */
    bool access(std::uint64_t addr);

    /** Touch a [addr, addr+size) range line by line. */
    void accessRange(std::uint64_t addr, std::size_t size);

    void reset();

    std::size_t hits() const { return hits_; }
    std::size_t misses() const { return misses_; }
    std::size_t accesses() const { return hits_ + misses_; }
    double missRate() const;

    /** Bytes fetched from DRAM so far (misses x line size). */
    std::size_t dramBytes() const { return misses_ * lineBytes_; }

    std::size_t capacity() const { return sets_ * assoc_ * lineBytes_; }
    unsigned lineBytes() const { return lineBytes_; }

  private:
    struct Way
    {
        std::uint64_t tag = ~0ull;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t sets_;
    unsigned assoc_;
    unsigned lineBytes_;
    std::vector<Way> ways_;  // sets_ x assoc_, row-major
    std::uint64_t clock_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_CACHE_HH
