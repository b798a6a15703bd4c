/**
 * @file
 * Discrete-event simulation engine: a deterministic time-ordered event
 * queue. Ties break by insertion sequence, so identical runs replay
 * identically.
 *
 * Implementation: a hierarchical time wheel instead of a binary min-heap.
 * Simulator delays are dominated by 0/1/small latencies, which a heap
 * pays O(log n) moves per event for; the wheel appends each event to a
 * bucket (O(1)) and pops it with a single move. Three wheel levels of
 * 1024 buckets cover deltas below 2^30 cycles (level k buckets span
 * 1024^k cycles); the rare farther event waits in an overflow list.
 *
 * Determinism: each bucket is a FIFO, every insertion into any bucket
 * happens in global schedule order (an event can only bypass a wheel
 * level after that level's bucket for its time block has been cascaded
 * down), and cascades preserve relative order — so same-time events
 * always execute in schedule order, exactly like the (time, seq) heap
 * tie-break this replaces. The swap is bit-identical: simulated cycles
 * and MemStats match the heap engine on every app x config
 * (tests/test_determinism.cpp holds the goldens).
 */

#ifndef GGA_SIM_ENGINE_HPP
#define GGA_SIM_ENGINE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "support/inline_function.hpp"
#include "support/types.hpp"

namespace gga {

/**
 * Callback type for events; captures must fit the 32-byte inline capacity
 * (the largest today, a resumed store's `this, lines, count, idx, req`,
 * is exactly 32). With its time stamp an Event fills one 64-byte line.
 */
using EventFn = InlineFunction<void(), 32>;

/**
 * Hierarchical-time-wheel event queue. All simulator components schedule
 * through one Engine instance, giving a single global time line.
 */
class Engine
{
  public:
    Engine();

    /** Current simulated time (GPU cycles). */
    Cycles now() const { return now_; }

    /** Schedule @p fn to run @p delay cycles from now (0 allowed). */
    void schedule(Cycles delay, EventFn fn);

    /** Schedule @p fn at absolute time @p when (must be >= now). */
    void scheduleAt(Cycles when, EventFn fn);

    /** Run until the queue drains. */
    void run();

    /** Number of events executed so far (for perf diagnostics). */
    std::uint64_t processedEvents() const { return processed_; }

    bool empty() const { return pending_ == 0; }

  private:
    /** log2 of the bucket count per wheel level. */
    static constexpr std::uint32_t kLogBuckets = 10;
    static constexpr std::size_t kBuckets = std::size_t{1} << kLogBuckets;
    static constexpr Cycles kBucketMask = kBuckets - 1;
    /** Wheel levels; deltas >= 2^(3*kLogBuckets) go to the far list. */
    static constexpr std::uint32_t kLevels = 3;
    static constexpr std::size_t kBitWords = kBuckets / 64;

    struct Event
    {
        Cycles time;
        EventFn fn;
    };
    static_assert(sizeof(Event) == 64, "an event should fill one cache line");

    struct Level
    {
        std::array<std::vector<Event>, kBuckets> buckets;
        /** Occupancy bitmap: bit b set iff buckets[b] is nonempty. */
        std::array<std::uint64_t, kBitWords> bits{};
        std::uint64_t count = 0;
    };

    /** Digit of @p t selecting the level-@p level bucket. */
    static std::size_t
    digit(Cycles t, std::uint32_t level)
    {
        return static_cast<std::size_t>(
            (t >> (level * kLogBuckets)) & kBucketMask);
    }

    /** File an event into the wheel level (or far list) for its delta. */
    void place(Cycles when, EventFn&& fn);
    void pushBucket(std::uint32_t level, std::size_t idx, Cycles when,
                    EventFn&& fn);
    /** Execute every event in the current-time L0 bucket, in FIFO order. */
    void drainBucket(std::vector<Event>& bucket);
    /** Advance now_ to the next pending event's wheel window. */
    void advance();
    /** Move one level-@p level bucket's events down via place(). */
    void cascade(std::uint32_t level, std::size_t idx);
    /** Pull far-list events belonging to now_'s top-level block inward. */
    void refillFromFar();
    /** First nonempty bucket index >= @p from at @p level, or kBuckets. */
    std::size_t firstSetFrom(const Level& lv, std::size_t from) const;

    std::array<Level, kLevels> levels_;
    std::vector<Event> far_;
    Cycles now_ = 0;
    std::uint64_t pending_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace gga

#endif // GGA_SIM_ENGINE_HPP
