/**
 * @file
 * FlatMap/FlatSet: open-addressing hash containers for hot paths — the
 * simulator's MSHR tables, the L2 ownership directory, per-word
 * serialization windows, and the graph generator's pair-membership set.
 * Replaces std::unordered_map/set where per-operation node allocation
 * and pointer chasing dominate: storage is flat arrays (control bytes +
 * slots), probing is linear, and clear() keeps capacity so resets are
 * allocation-free.
 *
 * Deliberately minimal: no iterators and no rehash-stability guarantees —
 * pointers returned by find()/operator[] are invalidated by any insertion
 * or erase. Only teardown visits entries (FlatMap::clear with a release
 * callback), so slot order — which differs from std's bucket order and
 * between deletion policies — never reaches observable behavior.
 */

#ifndef GGA_SUPPORT_FLAT_MAP_HPP
#define GGA_SUPPORT_FLAT_MAP_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace gga {

/** Default FlatMap hash: mix the key's bits (identity hashes cluster). */
template <typename K>
struct FlatHash
{
    std::size_t
    operator()(const K& k) const
    {
        static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                      "provide a custom hash for non-integral keys");
        return static_cast<std::size_t>(
            hashMix64(static_cast<std::uint64_t>(k)));
    }
};

/**
 * Open-addressing hash map with backward-shift deletion. K must be
 * integral (or provide a custom Hash); V must be default-constructible and
 * move-assignable (move-only types are fine).
 *
 * Erase leaves no tombstones: the entries after the freed slot in its
 * probe run move back into it, so a table whose live size stays bounded
 * never grows or rehashes, however many keys pass through it.
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    FlatMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots in the table (0 before the first insert or reserve). */
    std::size_t capacity() const { return ctrl_.size(); }

    bool contains(const K& key) const { return find(key) != nullptr; }

    /** Value pointer, or nullptr when absent. Invalidated by inserts. */
    V*
    find(const K& key)
    {
        if (ctrl_.empty())
            return nullptr;
        std::size_t i = probeStart(key);
        while (ctrl_[i] == kFull) {
            if (slots_[i].key == key)
                return &slots_[i].val;
            i = (i + 1) & mask();
        }
        return nullptr;
    }

    const V*
    find(const K& key) const
    {
        return const_cast<FlatMap*>(this)->find(key);
    }

    /** Value for @p key, default-constructed and inserted when absent. */
    V&
    operator[](const K& key)
    {
        reserveForOne();
        std::size_t i = probeStart(key);
        while (ctrl_[i] == kFull) {
            if (slots_[i].key == key)
                return slots_[i].val;
            i = (i + 1) & mask();
        }
        ctrl_[i] = kFull;
        slots_[i].key = key;
        slots_[i].val = V{};
        ++size_;
        return slots_[i].val;
    }

    /**
     * Remove @p key; returns whether it was present. Keeps capacity.
     * Invalidates pointers from find()/operator[], like an insert.
     */
    bool
    erase(const K& key)
    {
        if (ctrl_.empty())
            return false;
        std::size_t hole = probeStart(key);
        while (true) {
            if (ctrl_[hole] == kEmpty)
                return false;
            if (slots_[hole].key == key)
                break;
            hole = (hole + 1) & mask();
        }
        // Backward shift: walk the rest of the probe run and move back
        // every entry whose home slot does not lie cyclically in
        // (hole, j] — those would be unreachable past the new gap.
        for (std::size_t j = (hole + 1) & mask(); ctrl_[j] == kFull;
             j = (j + 1) & mask()) {
            const std::size_t home = probeStart(slots_[j].key);
            if (((j - home) & mask()) >= ((j - hole) & mask())) {
                slots_[hole].key = slots_[j].key;
                slots_[hole].val = std::move(slots_[j].val);
                hole = j;
            }
        }
        ctrl_[hole] = kEmpty;
        slots_[hole].val = V{}; // release held resources now
        --size_;
        return true;
    }

    /** Drop all entries but keep the table's capacity. */
    void
    clear()
    {
        clear([](const K&, V&) {});
    }

    /**
     * clear(), first handing each entry to @p release(key, value) in slot
     * order — for teardown that must return resources the values hold.
     * Slot order is not insertion order: keep it out of any output.
     */
    template <typename F>
    void
    clear(F&& release)
    {
        for (std::size_t i = 0; i < ctrl_.size(); ++i) {
            if (ctrl_[i] != kFull)
                continue;
            release(static_cast<const K&>(slots_[i].key), slots_[i].val);
            if constexpr (!std::is_trivially_destructible_v<V>)
                slots_[i].val = V{};
        }
        std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
        size_ = 0;
    }

    /** Pre-size the table for @p n entries without rehash churn. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (cap * 3 < n * 4) // target load factor <= 3/4
            cap *= 2;
        if (cap > ctrl_.size())
            rehash(cap);
    }

  private:
    struct Slot
    {
        K key{};
        V val{};
    };

    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::size_t kMinCapacity = 16;

    std::size_t mask() const { return ctrl_.size() - 1; }

    std::size_t
    probeStart(const K& key) const
    {
        return Hash{}(key) & mask();
    }

    /** Grow so one more insert keeps the load factor <= 3/4. */
    void
    reserveForOne()
    {
        if (ctrl_.empty())
            rehash(kMinCapacity);
        else if ((size_ + 1) * 4 > ctrl_.size() * 3)
            rehash(ctrl_.size() * 2);
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        std::vector<Slot> old_slots = std::move(slots_);
        ctrl_.assign(new_cap, kEmpty);
        slots_.clear();
        slots_.resize(new_cap);
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t j = probeStart(old_slots[i].key);
            while (ctrl_[j] == kFull)
                j = (j + 1) & mask();
            ctrl_[j] = kFull;
            slots_[j].key = old_slots[i].key;
            slots_[j].val = std::move(old_slots[i].val);
        }
    }

    std::vector<std::uint8_t> ctrl_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/**
 * Open-addressing hash set with tombstone deletion — FlatMap without the
 * values. Backs the graph generator's pair-membership tests, where the
 * std::unordered_set node allocations dominated synthesis time. Any key
 * value is legal (occupancy lives in the control bytes, so no sentinel
 * key is reserved).
 *
 * The probing/growth core deliberately mirrors FlatMap's rather than
 * sharing it: instantiating FlatMap with an empty value type would pad
 * every slot (key + empty struct) to twice the key size, and the
 * generator holds millions of live u64 keys. The two differ only in
 * deletion: FlatSet keeps tombstones. Its one erasing caller is the v1
 * generator's trim loop, which removes a bounded share of a pre-sized
 * set, so it never pays the compaction churn FlatMap's backward shift
 * removed; moving it over is a graph-layer change with its own
 * synthesis-timing check.
 */
template <typename K, typename Hash = FlatHash<K>>
class FlatSet
{
  public:
    FlatSet() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    bool
    contains(const K& key) const
    {
        if (ctrl_.empty())
            return false;
        std::size_t i = probeStart(key);
        while (true) {
            const std::uint8_t c = ctrl_[i];
            if (c == kEmpty)
                return false;
            if (c == kFull && slots_[i] == key)
                return true;
            i = (i + 1) & mask();
        }
    }

    /** Insert @p key; returns whether it was newly added. */
    bool
    insert(const K& key)
    {
        reserveForOne();
        std::size_t i = probeStart(key);
        std::size_t first_tomb = kNoSlot;
        while (true) {
            const std::uint8_t c = ctrl_[i];
            if (c == kFull && slots_[i] == key)
                return false;
            if (c == kTomb && first_tomb == kNoSlot)
                first_tomb = i;
            if (c == kEmpty) {
                if (first_tomb != kNoSlot) {
                    i = first_tomb;
                    --tombs_;
                }
                ctrl_[i] = kFull;
                slots_[i] = key;
                ++size_;
                return true;
            }
            i = (i + 1) & mask();
        }
    }

    /** Remove @p key; returns whether it was present. Keeps capacity. */
    bool
    erase(const K& key)
    {
        if (ctrl_.empty())
            return false;
        std::size_t i = probeStart(key);
        while (true) {
            const std::uint8_t c = ctrl_[i];
            if (c == kEmpty)
                return false;
            if (c == kFull && slots_[i] == key) {
                ctrl_[i] = kTomb;
                --size_;
                ++tombs_;
                return true;
            }
            i = (i + 1) & mask();
        }
    }

    /** Drop all entries but keep the table's capacity. */
    void
    clear()
    {
        std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
        size_ = 0;
        tombs_ = 0;
    }

    /** Pre-size the table for @p n entries without rehash churn. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (cap * 3 < n * 4) // target load factor <= 3/4
            cap *= 2;
        if (cap > ctrl_.size())
            rehash(cap);
    }

  private:
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::uint8_t kTomb = 2;
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    std::size_t mask() const { return ctrl_.size() - 1; }

    std::size_t
    probeStart(const K& key) const
    {
        return Hash{}(key) & mask();
    }

    void
    reserveForOne()
    {
        if (ctrl_.empty()) {
            rehash(kMinCapacity);
            return;
        }
        if ((size_ + tombs_ + 1) * 4 > ctrl_.size() * 3) {
            const std::size_t cap = (size_ + 1) * 4 > ctrl_.size() * 3
                                        ? ctrl_.size() * 2
                                        : ctrl_.size();
            rehash(cap);
        }
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        std::vector<K> old_slots = std::move(slots_);
        ctrl_.assign(new_cap, kEmpty);
        slots_.assign(new_cap, K{});
        tombs_ = 0;
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t j = probeStart(old_slots[i]);
            while (ctrl_[j] == kFull)
                j = (j + 1) & mask();
            ctrl_[j] = kFull;
            slots_[j] = old_slots[i];
        }
    }

    std::vector<std::uint8_t> ctrl_;
    std::vector<K> slots_;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

} // namespace gga

#endif // GGA_SUPPORT_FLAT_MAP_HPP
