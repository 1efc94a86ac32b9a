// Event queue for the DES kernel: a two-level bucketed calendar with a
// pairing-heap overflow tier. It pops in ascending (at, seq) order, the
// same total order as a binary heap; tests/sim_calendar_test.cpp keeps
// such a heap as its oracle and diffs randomized streams against it.
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
//   tier 2  pairing heap — events beyond the horizon (timeouts, scripted
//           outages). Nodes come from an internal free list. As the ring
//           advances, heap minima migrate into the ring.
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

    EventQueue() { ring_.resize(kBucketCount); }
    ~EventQueue() { clear(); }
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    struct Stats {
        std::uint64_t pushes = 0;
        std::uint64_t fifo_pushes = 0;      ///< tier 0: at == current time
        std::uint64_t ring_pushes = 0;      ///< tier 1: within the horizon
        std::uint64_t overflow_pushes = 0;  ///< tier 2: beyond the horizon
        std::uint64_t overflow_refills = 0;  ///< tier 2 → tier 1 migrations
        std::uint64_t overflow_chunks = 0;   ///< pairing-heap slab growths
        std::uint64_t max_size = 0;
    };

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Pre: e.at >= the `at` of every event popped so far (the engine
    /// clamps past deadlines to now before pushing).
    void push(Event&& e) {
        ++size_;
        ++stats_.pushes;
        if (size_ > stats_.max_size) stats_.max_size = size_;
        if (e.at == cur_time_) {
            ++stats_.fifo_pushes;
            fifo_.push_back(std::move(e));
            return;
        }
        insert_calendar(std::move(e));
    }

    /// Pops the minimum-(at, seq) event. Pre: !empty().
    Event pop() {
        --size_;
        // Leftover current-bucket events at the current time precede the
        // FIFO tier: they were pushed before the clock reached cur_time_.
        auto& cb = ring_[cur_tick_ & kBucketMask];
        if (di_ < cb.size() && cb[di_].at == cur_time_) return take_current(cb);
        if (fifo_head_ < fifo_.size()) {
            Event e = std::move(fifo_[fifo_head_++]);
            if (fifo_head_ == fifo_.size()) {
                fifo_.clear();
                fifo_head_ = 0;
            }
            return e;
        }
        return pop_calendar_min();
    }

    void clear() noexcept {
        fifo_.clear();
        fifo_head_ = 0;
        for (auto& b : ring_) b.clear();
        di_ = 0;
        ring_live_ = 0;
        while (ovf_root_ != nullptr) (void)ovf_pop_min();
        size_ = 0;
    }

private:
    static constexpr std::uint64_t kBucketBits = 9;  // 512 ns per bucket
    static constexpr std::uint64_t kBucketCount = std::uint64_t{1} << 12;
    static constexpr std::uint64_t kBucketMask = kBucketCount - 1;

    static bool before(const Event& a, const Event& b) noexcept {
        return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    }
    static std::uint64_t tick_of(Time t) noexcept {
        return static_cast<std::uint64_t>(t) >> kBucketBits;
    }

    void insert_calendar(Event&& e) {
        const std::uint64_t tick = tick_of(e.at);
        if (tick >= cur_tick_ + kBucketCount) {
            ++stats_.overflow_pushes;
            ovf_push(std::move(e));
            return;
        }
        ++stats_.ring_pushes;
        auto& b = ring_[tick & kBucketMask];
        if (tick == cur_tick_) {
            auto it = std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(di_),
                                       b.end(), e, before);
            b.insert(it, std::move(e));
        } else {
            b.push_back(std::move(e));
        }
        ++ring_live_;
    }

    Event take_current(std::vector<Event>& cb) {
        Event e = std::move(cb[di_++]);
        --ring_live_;
        if (di_ == cb.size()) {
            cb.clear();
            di_ = 0;
        }
        cur_time_ = e.at;  // may advance within the tick
        return e;
    }

    Event pop_calendar_min() {
        for (;;) {
            auto& cb = ring_[cur_tick_ & kBucketMask];
            if (di_ < cb.size()) return take_current(cb);
            cb.clear();
            di_ = 0;
            if (ring_live_ == 0) {
                // Ring drained: jump straight to the overflow minimum's
                // tick (size_ bookkeeping guarantees it exists).
                cur_tick_ = tick_of(ovf_root_->ev.at);
            } else {
                ++cur_tick_;
            }
            refill_from_overflow();
            auto& nb = ring_[cur_tick_ & kBucketMask];
            if (!nb.empty()) std::sort(nb.begin(), nb.end(), before);
        }
    }

    void refill_from_overflow() {
        while (ovf_root_ != nullptr &&
               tick_of(ovf_root_->ev.at) < cur_tick_ + kBucketCount) {
            ++stats_.overflow_refills;
            Event e = ovf_pop_min();
            ring_[tick_of(e.at) & kBucketMask].push_back(std::move(e));
            ++ring_live_;
        }
    }

    // ---- tier 2: pairing heap with free-listed nodes -------------------
    struct HeapNode {
        Event ev;
        HeapNode* child = nullptr;
        HeapNode* sib = nullptr;
    };

    static HeapNode* meld(HeapNode* a, HeapNode* b) noexcept {
        if (a == nullptr) return b;
        if (b == nullptr) return a;
        if (before(b->ev, a->ev)) std::swap(a, b);
        b->sib = a->child;
        a->child = b;
        return a;
    }

    HeapNode* node_alloc() {
        if (node_free_ == nullptr) {
            constexpr std::size_t kChunk = 64;
            node_chunks_.push_back(std::make_unique<HeapNode[]>(kChunk));
            ++stats_.overflow_chunks;
            HeapNode* base = node_chunks_.back().get();
            for (std::size_t i = kChunk; i-- > 0;) {
                base[i].sib = node_free_;
                node_free_ = &base[i];
            }
        }
        HeapNode* n = node_free_;
        node_free_ = n->sib;
        n->child = nullptr;
        n->sib = nullptr;
        return n;
    }

    void node_release(HeapNode* n) noexcept {
        n->ev = Event{};  // drop the closure now, not at queue teardown
        n->child = nullptr;
        n->sib = node_free_;
        node_free_ = n;
    }

    void ovf_push(Event&& e) {
        HeapNode* n = node_alloc();
        n->ev = std::move(e);
        ovf_root_ = meld(ovf_root_, n);
    }

    Event ovf_pop_min() noexcept {
        HeapNode* r = ovf_root_;
        Event e = std::move(r->ev);
        HeapNode* c = r->child;
        node_release(r);
        // Two-pass pairwise merge, using sib as an intrusive stack link.
        HeapNode* stack = nullptr;
        while (c != nullptr) {
            HeapNode* a = c;
            HeapNode* b = c->sib;
            c = (b != nullptr) ? b->sib : nullptr;
            a->sib = nullptr;
            if (b != nullptr) b->sib = nullptr;
            HeapNode* m = meld(a, b);
            m->sib = stack;
            stack = m;
        }
        HeapNode* root = nullptr;
        while (stack != nullptr) {
            HeapNode* nxt = stack->sib;
            stack->sib = nullptr;
            root = meld(root, stack);
            stack = nxt;
        }
        ovf_root_ = root;
        return e;
    }

    std::size_t size_ = 0;
    Stats stats_;

    Time cur_time_ = 0;          // time of the most recent pop
    std::uint64_t cur_tick_ = 0;  // == tick_of(cur_time_) (may trail within gaps)
    std::vector<Event> fifo_;
    std::size_t fifo_head_ = 0;
    std::vector<std::vector<Event>> ring_;
    std::size_t di_ = 0;  // drain cursor into the current (sorted) bucket
    std::size_t ring_live_ = 0;

    HeapNode* ovf_root_ = nullptr;
    HeapNode* node_free_ = nullptr;
    std::vector<std::unique_ptr<HeapNode[]>> node_chunks_;
};

}  // namespace nbe::sim
