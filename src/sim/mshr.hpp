/**
 * @file
 * Miss Status Holding Registers: outstanding line fills with waiter
 * merging. A full table back-pressures the core (Data stalls).
 *
 * Hot-path storage: entries live in an open-addressing FlatMap sized for
 * the table's capacity up front (its erase leaves no tombstones, so it
 * never rehashes), and each entry's waiters form a FIFO chain of nodes
 * from the table's ObjectPool, so steady-state misses allocate nothing.
 */

#ifndef GGA_SIM_MSHR_HPP
#define GGA_SIM_MSHR_HPP

#include <cstdint>
#include <utility>

#include "sim/engine.hpp"
#include "support/flat_map.hpp"
#include "support/object_pool.hpp"
#include "support/types.hpp"

namespace gga {

/** What an in-flight fill will deliver. */
enum class FillKind : std::uint8_t
{
    Data,      ///< GetV: a readable copy
    Ownership, ///< GetO: a registered, writable copy (DeNovo)
};

/** Result of trying to attach a waiter to a line fill. */
enum class MshrAdd : std::uint8_t
{
    NewEntry, ///< allocated; the caller must start the actual fill
    Merged,   ///< attached to a compatible in-flight fill
    Conflict, ///< in-flight fill is weaker than required; retry later
};

/** Outstanding-miss table keyed by line address. */
class MshrTable
{
  public:
    explicit MshrTable(std::uint32_t capacity) : capacity_(capacity)
    {
        entries_.reserve(capacity);
    }

    /** In-flight waiters are dropped unrun (the pool must end empty). */
    ~MshrTable()
    {
        entries_.clear([this](Addr, Entry& e) { freeChain(e.head); });
    }

    bool full() const { return entries_.size() >= capacity_; }

    bool isPending(Addr line) const { return entries_.contains(line); }

    std::size_t inFlight() const { return entries_.size(); }

    /**
     * Register @p waiter for the fill of @p line requiring @p kind.
     *
     * A Data request merges with any in-flight fill; an Ownership request
     * merges only with an Ownership fill (a Data fill in flight yields
     * Conflict — the caller retries once it lands).
     */
    MshrAdd
    addWaiter(Addr line, FillKind kind, EventFn waiter)
    {
        if (Entry* e = entries_.find(line)) {
            if (kind == FillKind::Ownership && e->kind == FillKind::Data)
                return MshrAdd::Conflict;
            append(*e, std::move(waiter));
            return MshrAdd::Merged;
        }
        Entry& e = entries_[line];
        e.kind = kind;
        append(e, std::move(waiter));
        return MshrAdd::NewEntry;
    }

    /**
     * Attach @p fn to the in-flight fill of @p line regardless of its
     * kind: used to re-try ownership upgrades once a weaker data fill
     * lands. The line must be pending.
     */
    void
    addRetryOnFill(Addr line, EventFn fn)
    {
        if (Entry* e = entries_.find(line))
            append(*e, std::move(fn));
        else
            fn(); // fill already landed; retry immediately
    }

    /**
     * Complete the fill of @p line: remove its entry, then run its
     * waiters in the order they were attached. A waiter may add waiters
     * to this table, for @p line too (that opens a new entry). Returns
     * the number of waiters run.
     */
    std::size_t
    complete(Addr line)
    {
        Entry* e = entries_.find(line);
        if (e == nullptr)
            return 0;
        Waiter* w = e->head;
        entries_.erase(line);
        std::size_t ran = 0;
        while (w != nullptr) {
            // The node stays live while it runs, so nodes the waiter
            // allocates cannot reuse it.
            w->fn();
            Waiter* next = w->next;
            pool_.destroy(w);
            w = next;
            ++ran;
        }
        return ran;
    }

  private:
    struct Waiter
    {
        EventFn fn;
        Waiter* next = nullptr;
    };

    struct Entry
    {
        Waiter* head = nullptr;
        Waiter* tail = nullptr;
        FillKind kind = FillKind::Data;
    };

    void
    append(Entry& e, EventFn&& fn)
    {
        Waiter* w = pool_.create();
        w->fn = std::move(fn);
        if (e.tail != nullptr)
            e.tail->next = w;
        else
            e.head = w;
        e.tail = w;
    }

    void
    freeChain(Waiter* w)
    {
        while (w != nullptr) {
            Waiter* next = w->next;
            pool_.destroy(w);
            w = next;
        }
    }

    ObjectPool<Waiter> pool_;
    FlatMap<Addr, Entry> entries_;
    std::uint32_t capacity_;
};

} // namespace gga

#endif // GGA_SIM_MSHR_HPP
