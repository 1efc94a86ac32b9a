// Event queue for the DES kernel: a two-level bucketed calendar with a
// binary-heap overflow tier. It pops in ascending (at, seq) order, the
// same total order as a binary heap; tests/sim_calendar_test.cpp keeps
// such a heap as its oracle and diffs randomized streams against it.
//
// Keys over a slab: the tiers below never hold an event's body. Each one
// holds a trivially copyable 24-byte Key {at, seq, slot}; the body (a
// Process* or a SmallFn closure) sits in a chunked slab whose addresses
// never move, and the slot is a free-listed index into it. Sorting a
// bucket, binary-inserting mid-drain and sifting the overflow heap
// therefore move PODs and never run a closure's relocate thunk. A body is
// written once at push and, on the engine's path, invoked in place
// (pop_key/body/release): a closure that schedules more events may grow
// the slab while it runs.
//
// Calendar tiering (virtual time is integer nanoseconds):
//   tier 0  "now FIFO"  — events scheduled *at* the current time (yields,
//           notifications, immediate issues). Sequence numbers are handed
//           out monotonically, so plain FIFO order *is* (at, seq) order.
//           O(1) push/pop, and it is the most common case by far.
//   tier 1  bucket ring — 4096 buckets of 512 ns cover a ~2.1 ms horizon,
//           comfortably past every fabric latency in FabricConfig (300 ns
//           intra-node, 1.5 us inter-node, 15 us page pin). Push appends
//           to the target bucket; a bucket is sorted once, when it becomes
//           current. Mid-drain inserts into the current bucket binary-
//           insert past the drain cursor to keep its front the minimum.
//           A drained bucket keeps at most kBucketKeepKeys of capacity, so
//           the N^2 burst of one fence does not pin its peak in every
//           bucket the ring ever passes over.
//   tier 2  overflow heap — events beyond the horizon, in a std::vector
//           kept as a binary heap on (at, seq). As the ring advances, heap
//           minima migrate into the ring. No benchmark, example or
//           figure run pushes anything here; only a few tests do.
//
// Ordering argument: any calendar event with time == current time was
// pushed while the clock was still behind it, so its seq precedes every
// now-FIFO entry; the drain order current-bucket@now → FIFO → advance is
// therefore exact (at, seq). The current bucket's front is the global
// calendar minimum because other ring buckets hold strictly later ticks
// and the overflow tier is beyond the horizon.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace nbe::sim {

class Process;

/// One pending simulator event: either a process resumption (proc != null)
/// or a closure. (at, seq) is the total execution order.
struct Event {
    Time at = 0;
    std::uint64_t seq = 0;
    Process* proc = nullptr;
    SmallFn<void()> fn;
};

class EventQueue {
public:
    /// The calendar is the only queue. The enum survives only because
    /// rt::JobConfig still names it; it carries no choice.
    enum class Kind { Calendar };

    /// What every tier stores: the ordering fields and the body's slot.
    struct Key {
        Time at = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };

    /// An event's payload, parked in the slab from push until release.
    struct Body {
        Process* proc = nullptr;
        SmallFn<void()> fn;
    };

    /// A drained ring bucket keeps at most this many keys of capacity.
    static constexpr std::size_t kBucketKeepKeys = 256;

    EventQueue() { ring_.resize(kBucketCount); }
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    struct Stats {
        std::uint64_t ring_pushes = 0;      ///< tier 1: within the horizon
        std::uint64_t overflow_pushes = 0;  ///< tier 2: beyond the horizon
        std::uint64_t max_size = 0;
    };

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Pre: at >= the `at` of every event popped so far (the engine clamps
    /// past deadlines to now before pushing).
    template <class F>
    void emplace(Time at, std::uint64_t seq, Process* proc, F&& fn) {
        const std::uint32_t slot = alloc_slot();
        Body& b = body(slot);
        b.proc = proc;
        if constexpr (!std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t>) {
            b.fn = std::forward<F>(fn);
        }
        push_key(Key{at, seq, slot});
    }

    void push(Event&& e) { emplace(e.at, e.seq, e.proc, std::move(e.fn)); }

    /// Pops the minimum-(at, seq) event. Pre: !empty().
    Event pop() {
        const Key k = pop_key();
        Body& b = body(k.slot);
        Event e{k.at, k.seq, b.proc, std::move(b.fn)};
        release(k.slot);
        return e;
    }

    /// Pops the minimum-(at, seq) key; its body stays in the slab, at a
    /// stable address, until release(k.slot). Pre: !empty().
    Key pop_key() {
        --size_;
        // Leftover current-bucket events at the current time precede the
        // FIFO tier: they were pushed before the clock reached cur_time_.
        auto& cb = ring_[cur_tick_ & kBucketMask];
        if (di_ < cb.size() && cb[di_].at == cur_time_) return take_current(cb);
        if (fifo_head_ < fifo_.size()) {
            const Key k = fifo_[fifo_head_++];
            if (fifo_head_ == fifo_.size()) {
                fifo_.clear();
                fifo_head_ = 0;
            }
            return k;
        }
        return pop_calendar_min();
    }

    [[nodiscard]] Body& body(std::uint32_t slot) noexcept {
        return slab_[slot >> kSlabChunkBits][slot & kSlabChunkMask];
    }

    /// Destroys the body's closure and returns its slot to the free list.
    void release(std::uint32_t slot) noexcept {
        Body& b = body(slot);
        b.proc = nullptr;
        b.fn.reset();
        free_slots_.push_back(slot);
    }

    /// Drops every queued event and its closure. Not callable while a
    /// popped body is still unreleased (i.e. from inside an event).
    void clear() noexcept {
        fifo_.clear();
        fifo_head_ = 0;
        for (auto& b : ring_) b.clear();
        di_ = 0;
        ring_live_ = 0;
        ovf_.clear();
        size_ = 0;
        slab_.clear();  // destroys every body, queued or not
        free_slots_.clear();
    }

    /// Key capacity held by the ring buckets (diagnostics / tests).
    [[nodiscard]] std::size_t ring_capacity() const noexcept {
        std::size_t n = 0;
        for (const auto& b : ring_) n += b.capacity();
        return n;
    }

private:
    static constexpr std::uint64_t kBucketBits = 9;  // 512 ns per bucket
    static constexpr std::uint64_t kBucketCount = std::uint64_t{1} << 12;
    static constexpr std::uint64_t kBucketMask = kBucketCount - 1;
    static constexpr std::uint32_t kSlabChunkBits = 10;
    static constexpr std::uint32_t kSlabChunk = std::uint32_t{1} << kSlabChunkBits;
    static constexpr std::uint32_t kSlabChunkMask = kSlabChunk - 1;

    static bool before(const Key& a, const Key& b) noexcept {
        return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    }
    /// The heap algorithms keep the greatest element first; this puts the
    /// earliest there.
    static bool after(const Key& a, const Key& b) noexcept { return before(b, a); }
    static std::uint64_t tick_of(Time t) noexcept {
        return static_cast<std::uint64_t>(t) >> kBucketBits;
    }

    std::uint32_t alloc_slot() {
        if (free_slots_.empty()) {
            const auto base = static_cast<std::uint32_t>(slab_.size()) << kSlabChunkBits;
            slab_.push_back(std::make_unique<Body[]>(kSlabChunk));
            // Room for every slot, so release() never reallocates.
            free_slots_.reserve(slab_.size() * kSlabChunk);
            for (std::uint32_t i = kSlabChunk; i-- > 0;) free_slots_.push_back(base + i);
        }
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }

    void push_key(const Key& k) {
        ++size_;
        if (size_ > stats_.max_size) stats_.max_size = size_;
        if (k.at == cur_time_) {
            fifo_.push_back(k);
            return;
        }
        const std::uint64_t tick = tick_of(k.at);
        if (tick >= cur_tick_ + kBucketCount) {
            ++stats_.overflow_pushes;
            ovf_.push_back(k);
            std::push_heap(ovf_.begin(), ovf_.end(), after);
            return;
        }
        ++stats_.ring_pushes;
        auto& b = ring_[tick & kBucketMask];
        if (tick == cur_tick_) {
            auto it = std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(di_),
                                       b.end(), k, before);
            b.insert(it, k);
        } else {
            b.push_back(k);
        }
        ++ring_live_;
    }

    /// Empties a drained bucket, shedding capacity above kBucketKeepKeys.
    static void recycle(std::vector<Key>& b) {
        if (b.capacity() <= kBucketKeepKeys) {
            b.clear();
            return;
        }
        std::vector<Key> kept;
        kept.reserve(kBucketKeepKeys);
        b.swap(kept);
    }

    Key take_current(std::vector<Key>& cb) {
        const Key k = cb[di_++];
        --ring_live_;
        if (di_ == cb.size()) {
            recycle(cb);
            di_ = 0;
        }
        cur_time_ = k.at;  // may advance within the tick
        return k;
    }

    Key pop_calendar_min() {
        for (;;) {
            auto& cb = ring_[cur_tick_ & kBucketMask];
            if (di_ < cb.size()) return take_current(cb);
            cb.clear();
            di_ = 0;
            if (ring_live_ == 0) {
                // Ring drained: jump straight to the overflow minimum's
                // tick (size_ bookkeeping guarantees it exists).
                cur_tick_ = tick_of(ovf_.front().at);
            } else {
                ++cur_tick_;
            }
            refill_from_overflow();
            auto& nb = ring_[cur_tick_ & kBucketMask];
            if (!nb.empty()) std::sort(nb.begin(), nb.end(), before);
        }
    }

    void refill_from_overflow() {
        while (!ovf_.empty() &&
               tick_of(ovf_.front().at) < cur_tick_ + kBucketCount) {
            std::pop_heap(ovf_.begin(), ovf_.end(), after);
            const Key k = ovf_.back();
            ovf_.pop_back();
            ring_[tick_of(k.at) & kBucketMask].push_back(k);
            ++ring_live_;
        }
    }

    std::size_t size_ = 0;
    Stats stats_;

    Time cur_time_ = 0;          // time of the most recent pop
    std::uint64_t cur_tick_ = 0;  // == tick_of(cur_time_) (may trail within gaps)
    std::vector<Key> fifo_;
    std::size_t fifo_head_ = 0;
    std::vector<std::vector<Key>> ring_;
    std::size_t di_ = 0;  // drain cursor into the current (sorted) bucket
    std::size_t ring_live_ = 0;

    std::vector<Key> ovf_;  // binary heap: front() is the (at, seq) minimum

    // The body slab: chunks never move, so a body stays put while the
    // closure it holds runs and pushes more events.
    std::vector<std::unique_ptr<Body[]>> slab_;
    std::vector<std::uint32_t> free_slots_;
};

}  // namespace nbe::sim
