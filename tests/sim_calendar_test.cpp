// Property tests for the bucketed calendar event queue: the calendar and a
// test-local binary heap (the oracle) must pop randomized (time, seq)
// streams in exactly the same total order, through every tier (now-FIFO,
// bucket ring, pairing-heap overflow) and across interleaved push/pop
// schedules that respect the engine's monotonic-clock contract. Also
// covers the SmallFn inline/heap-fallback behaviour the zero-alloc
// datapath depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/engine.hpp"

using nbe::sim::Event;
using nbe::sim::EventQueue;
using nbe::sim::SmallFn;
using nbe::sim::Time;

namespace {

using Popped = std::vector<std::pair<Time, std::uint64_t>>;

// The oracle: a plain binary min-heap on (at, seq), the order the calendar
// must reproduce.
class ReferenceHeap {
public:
    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

    void push(Event&& e) {
        heap_.push_back(std::move(e));
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    Event pop() {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        Event e = std::move(heap_.back());
        heap_.pop_back();
        return e;
    }

private:
    // std::push_heap builds a max-heap wrt its comparator; "later" puts the
    // earliest event at the front.
    static bool later(const Event& a, const Event& b) noexcept {
        return b.at < a.at || (b.at == a.at && b.seq < a.seq);
    }

    std::vector<Event> heap_;
};

// Drives one queue through a scripted interleaving of pushes and pops.
// The script is regenerated identically for each queue from the seed, and
// respects the engine precondition: every push's `at` is >= the time of
// the latest pop (the engine clamps before pushing).
template <class Queue>
Popped drive(std::uint64_t seed, int steps) {
    Queue q;
    std::mt19937_64 rng(seed);
    std::uint64_t seq = 0;
    Time now = 0;
    Popped out;

    // Offset classes per tier: now-FIFO, same bucket, within the ring
    // horizon, beyond it (overflow), far beyond (overflow resorted).
    const std::array<std::pair<Time, Time>, 5> ranges{{
        {0, 0},
        {1, 511},
        {512, (Time{1} << 21) - 1},
        {Time{1} << 21, Time{1} << 24},
        {Time{1} << 24, Time{1} << 30},
    }};

    for (int i = 0; i < steps; ++i) {
        const bool push = q.empty() || (rng() % 100) < 55;
        if (push) {
            const auto& [lo, hi] = ranges[rng() % ranges.size()];
            const Time at =
                now + lo +
                (hi > lo ? static_cast<Time>(rng() % static_cast<std::uint64_t>(
                                                        hi - lo + 1))
                         : 0);
            q.push(Event{at, seq++, nullptr, nullptr});
        } else {
            Event e = q.pop();
            EXPECT_GE(e.at, now);
            now = e.at;
            out.emplace_back(e.at, e.seq);
        }
    }
    while (!q.empty()) {
        Event e = q.pop();
        EXPECT_GE(e.at, now);
        now = e.at;
        out.emplace_back(e.at, e.seq);
    }
    return out;
}

}  // namespace

TEST(CalendarQueue, MatchesReferenceHeapOnRandomStreams) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL, 987654321ULL}) {
        const Popped cal = drive<EventQueue>(seed, 4000);
        const Popped heap = drive<ReferenceHeap>(seed, 4000);
        ASSERT_EQ(cal, heap) << "divergence for seed " << seed;
    }
}

TEST(CalendarQueue, PopOrderIsSortedByTimeThenSeq) {
    const Popped cal = drive<EventQueue>(99, 6000);
    for (std::size_t i = 1; i < cal.size(); ++i) {
        const bool ordered =
            cal[i - 1].first < cal[i].first ||
            (cal[i - 1].first == cal[i].first &&
             cal[i - 1].second < cal[i].second);
        ASSERT_TRUE(ordered) << "out of order at index " << i;
    }
}

TEST(CalendarQueue, SameTimestampDrainsInPushOrder) {
    // Pure tier-0 traffic: everything lands at the current time, so pops
    // must come back FIFO (monotonic seq == push order).
    EventQueue q;
    for (std::uint64_t s = 0; s < 100; ++s) {
        q.push(Event{0, s, nullptr, nullptr});
    }
    for (std::uint64_t s = 0; s < 100; ++s) {
        EXPECT_EQ(q.pop().seq, s);
    }
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, OverflowEventsMigrateThroughTheRing) {
    // Events far past the ring horizon must land in the pairing heap and
    // still pop in global order once the ring advances to them.
    EventQueue q;
    std::uint64_t seq = 0;
    std::vector<Time> times;
    for (Time t : {Time{5}, Time{1} << 25, Time{100}, (Time{1} << 25) + 1,
                   Time{1} << 22, Time{700}}) {
        q.push(Event{t, seq++, nullptr, nullptr});
        times.push_back(t);
    }
    EXPECT_GT(q.stats().overflow_pushes, 0u);
    std::sort(times.begin(), times.end());
    for (Time t : times) EXPECT_EQ(q.pop().at, t);
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ClearReleasesAllTiers) {
    EventQueue q;
    std::uint64_t seq = 0;
    for (Time t : {Time{0}, Time{100}, Time{1} << 26}) {
        q.push(Event{t, seq++, nullptr, nullptr});
    }
    EXPECT_EQ(q.size(), 3u);
    q.clear();
    EXPECT_TRUE(q.empty());
    // Reusable after clear.
    q.push(Event{Time{3}, seq++, nullptr, nullptr});
    EXPECT_EQ(q.pop().at, 3);
}

TEST(CalendarQueue, EngineScheduleMatchesGoldenLog) {
    // End-to-end: timers fanning out more timers at mixed horizons must
    // execute in exact (time, seq) order at the right virtual times.
    std::vector<std::pair<Time, int>> log;
    nbe::sim::Engine eng;
    for (int i = 0; i < 8; ++i) {
        eng.schedule_at(i * 700, [&log, &eng, i] {
            log.emplace_back(eng.now(), i);
            for (int j = 0; j < 3; ++j) {
                eng.schedule_after(j * 40000, [&log, &eng, i, j] {
                    log.emplace_back(eng.now(), 100 + i * 10 + j);
                });
            }
            // Past-due deadline: must clamp to now, not travel back.
            eng.schedule_at(0, [&log, &eng, i] {
                log.emplace_back(eng.now(), 200 + i);
            });
        });
    }
    eng.run();

    // Each timer at i*700 runs its zero-delay child and then its clamped
    // one at the same instant, in push order; the 40 us and 80 us children
    // follow, one sweep of the eight timers per horizon.
    std::vector<std::pair<Time, int>> golden;
    for (int i = 0; i < 8; ++i) {
        golden.emplace_back(i * 700, i);
        golden.emplace_back(i * 700, 100 + i * 10);
        golden.emplace_back(i * 700, 200 + i);
    }
    for (int j = 1; j < 3; ++j) {
        for (int i = 0; i < 8; ++i) {
            golden.emplace_back(j * 40000 + i * 700, 100 + i * 10 + j);
        }
    }
    EXPECT_EQ(log, golden);
}

// ------------------------------------------------------------- SmallFn

TEST(SmallFn, InlineCaptureTakesNoHeapFallback) {
    const std::uint64_t before = nbe::sim::smallfn_heap_fallbacks();
    int x = 0;
    struct {
        int* a;
        void* b;
        std::uint64_t c[4];
    } cap{&x, &x, {1, 2, 3, 4}};
    static_assert(sizeof(cap) <= nbe::sim::kSmallFnInlineBytes);
    SmallFn<void()> fn([cap] { *cap.a += static_cast<int>(cap.c[0]); });
    SmallFn<void()> moved(std::move(fn));
    moved();
    EXPECT_EQ(x, 1);
    EXPECT_EQ(nbe::sim::smallfn_heap_fallbacks(), before);
}

TEST(SmallFn, OversizedCaptureFallsBackToHeapAndCounts) {
    const std::uint64_t before = nbe::sim::smallfn_heap_fallbacks();
    std::array<std::uint64_t, 16> big{};
    big[7] = 9;
    SmallFn<std::uint64_t()> fn([big] { return big[7]; });
    EXPECT_EQ(nbe::sim::smallfn_heap_fallbacks(), before + 1);
    SmallFn<std::uint64_t()> moved(std::move(fn));
    EXPECT_EQ(moved(), 9u);
    // Moving a heap-backed SmallFn must not allocate another copy.
    EXPECT_EQ(nbe::sim::smallfn_heap_fallbacks(), before + 1);
}

TEST(SmallFn, HoldsMoveOnlyCaptures) {
    auto p = std::make_unique<int>(41);
    SmallFn<int()> fn([p = std::move(p)] { return *p + 1; });
    SmallFn<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 42);
}
