/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 */

#ifndef MITTS_CACHE_CACHE_ARRAY_HH
#define MITTS_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"

namespace mitts
{

/** Evicted line descriptor returned by CacheArray::insert. */
struct Victim
{
    bool valid = false;
    bool dirty = false;
    Addr blockAddr = kAddrInvalid;
};

/**
 * Tags only — the simulator never models data contents. Addresses are
 * block addresses (low 6 bits zero).
 *
 * Lines are stored flat, one column per field, line `set * assoc +
 * way`: a probe scans `assoc` adjacent words of `(tag << 1) | valid`,
 * so one compare matches both the tag and the valid bit.
 */
class CacheArray
{
  public:
    CacheArray(std::size_t size_bytes, unsigned assoc);

    /** Probe without updating replacement state. */
    bool contains(Addr block_addr) const;

    /**
     * Probe and update LRU on hit; a hit also sets the dirty bit when
     * `make_dirty`. @return true on hit.
     */
    bool touch(Addr block_addr, bool make_dirty = false);

    /** Set the dirty bit (line must be present). */
    void markDirty(Addr block_addr);

    /** True iff the present line is dirty. */
    bool isDirty(Addr block_addr) const;

    /**
     * Install a line (must not be present), evicting the LRU way if
     * the set is full. @return descriptor of the evicted line.
     */
    Victim insert(Addr block_addr, bool dirty);

    /** Remove a line if present (back-invalidation). */
    void invalidate(Addr block_addr);

    std::size_t numSets() const { return setMask_ + 1; }
    unsigned assoc() const { return assoc_; }
    std::size_t sizeBytes() const { return key_.size() * kBlockBytes; }

    /** Checkpoint every tag/LRU bit (geometry is construction-time). */
    void saveState(ckpt::Writer &w) const;
    void loadState(ckpt::Reader &r);

  private:
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /** First line of the set `block_addr` maps to. */
    std::size_t
    setBase(Addr block_addr) const
    {
        return ((block_addr >> setShift_) & setMask_) * assoc_;
    }
    std::uint64_t
    tagOf(Addr block_addr) const
    {
        return block_addr >> tagShift_;
    }
    /** Line index holding `block_addr`, or kNoLine. */
    std::size_t findLine(Addr block_addr) const;

    unsigned assoc_;
    // detlint-transient(derived from geometry at construction)
    unsigned setShift_;   ///< log2(block size)
    // detlint-transient(derived from geometry at construction)
    unsigned tagShift_;   ///< setShift_ + log2(set count)
    std::uint64_t setMask_;
    std::vector<std::uint64_t> key_;     ///< (tag << 1) | valid
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> lastUse_; ///< useClock_ at last touch
    std::uint64_t useClock_ = 0;
};

} // namespace mitts

#endif // MITTS_CACHE_CACHE_ARRAY_HH
