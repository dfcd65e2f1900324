#include "cache/cache_array.hh"

namespace mitts
{

CacheArray::CacheArray(std::size_t size_bytes, unsigned assoc)
    : assoc_(assoc), setShift_(floorLog2(kBlockBytes))
{
    MITTS_ASSERT(assoc > 0, "associativity must be positive");
    const std::size_t lines = size_bytes / kBlockBytes;
    MITTS_ASSERT(lines % assoc == 0, "size not divisible by assoc");
    const std::size_t num_sets = lines / assoc;
    MITTS_ASSERT(isPowerOf2(num_sets), "set count must be a power of 2");
    setMask_ = num_sets - 1;
    tagShift_ = setShift_ + floorLog2(num_sets);
    key_.assign(lines, 0);
    dirty_.assign(lines, 0);
    lastUse_.assign(lines, 0);
}

std::size_t
CacheArray::findLine(Addr block_addr) const
{
    const std::uint64_t key = (tagOf(block_addr) << 1) | 1;
    const std::size_t base = setBase(block_addr);
    for (std::size_t i = base; i < base + assoc_; ++i) {
        if (key_[i] == key)
            return i;
    }
    return kNoLine;
}

bool
CacheArray::contains(Addr block_addr) const
{
    return findLine(block_addr) != kNoLine;
}

bool
CacheArray::touch(Addr block_addr, bool make_dirty)
{
    const std::size_t i = findLine(block_addr);
    if (i == kNoLine)
        return false;
    lastUse_[i] = ++useClock_;
    if (make_dirty)
        dirty_[i] = 1;
    return true;
}

void
CacheArray::markDirty(Addr block_addr)
{
    const std::size_t i = findLine(block_addr);
    MITTS_ASSERT(i != kNoLine, "markDirty on absent line");
    dirty_[i] = 1;
}

bool
CacheArray::isDirty(Addr block_addr) const
{
    const std::size_t i = findLine(block_addr);
    return i != kNoLine && dirty_[i];
}

Victim
CacheArray::insert(Addr block_addr, bool dirty)
{
    MITTS_ASSERT(!contains(block_addr), "double insert");
    const std::size_t base = setBase(block_addr);
    const std::size_t end = base + assoc_;

    std::size_t slot = kNoLine;
    for (std::size_t i = base; i < end; ++i) {
        if (!(key_[i] & 1)) {
            slot = i;
            break;
        }
    }

    Victim victim;
    if (slot == kNoLine) {
        // Evict true-LRU way (the first of equal ages).
        slot = base;
        for (std::size_t i = base + 1; i < end; ++i) {
            if (lastUse_[i] < lastUse_[slot])
                slot = i;
        }
        victim.valid = true;
        victim.dirty = dirty_[slot] != 0;
        victim.blockAddr =
            ((key_[slot] >> 1) << tagShift_) |
            (block_addr & (setMask_ << setShift_));
    }

    key_[slot] = (tagOf(block_addr) << 1) | 1;
    dirty_[slot] = dirty;
    lastUse_[slot] = ++useClock_;
    return victim;
}

void
CacheArray::invalidate(Addr block_addr)
{
    // The stale tag stays (checkpoints carry it).
    const std::size_t i = findLine(block_addr);
    if (i != kNoLine)
        key_[i] &= ~std::uint64_t{1};
}

void
CacheArray::saveState(ckpt::Writer &w) const
{
    w.u64(numSets());
    w.u64(assoc_);
    for (std::size_t i = 0; i < key_.size(); ++i) {
        w.b(key_[i] & 1);
        w.b(dirty_[i] != 0);
        w.u64(key_[i] >> 1);
        w.u64(lastUse_[i]);
    }
    w.u64(useClock_);
}

void
CacheArray::loadState(ckpt::Reader &r)
{
    if (r.u64() != numSets() || r.u64() != assoc_)
        throw ckpt::Error("cache array geometry mismatch");
    for (std::size_t i = 0; i < key_.size(); ++i) {
        const bool valid = r.b();
        dirty_[i] = r.b();
        const std::uint64_t tag = r.u64();
        // A real tag has tagShift_ fewer bits than an address.
        if (tag >> (64 - tagShift_) != 0)
            throw ckpt::Error("cache tag out of range");
        key_[i] = (tag << 1) | valid;
        lastUse_[i] = r.u64();
    }
    useClock_ = r.u64();
}

} // namespace mitts
