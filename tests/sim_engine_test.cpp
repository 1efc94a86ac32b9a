// Unit tests for the DES kernel: event ordering, virtual clock, process
// handoff, conditions, determinism, deadlock detection.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace sim = nbe::sim;

namespace {

/// prefix + i, built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict on `"literal" + std::string&&`.
std::string numbered(const char* prefix, int i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

}  // namespace

TEST(Time, ConversionHelpers) {
    EXPECT_EQ(sim::microseconds(1), 1000);
    EXPECT_EQ(sim::milliseconds(1), 1'000'000);
    EXPECT_EQ(sim::seconds(1), 1'000'000'000);
    EXPECT_DOUBLE_EQ(sim::to_usec(1500), 1.5);
    EXPECT_DOUBLE_EQ(sim::to_msec(2'500'000), 2.5);
    EXPECT_DOUBLE_EQ(sim::to_sec(3'000'000'000), 3.0);
}

TEST(Time, SerializationDelayRoundsUp) {
    // 1 MB at 3.1 GB/s is ~338 us.
    const auto d = sim::serialization_delay(1 << 20, 3.1e9);
    EXPECT_GT(d, sim::microseconds(335));
    EXPECT_LT(d, sim::microseconds(342));
    EXPECT_EQ(sim::serialization_delay(0, 3.1e9), 0);
    EXPECT_GT(sim::serialization_delay(1, 3.1e9), 0);
}

TEST(Engine, EventsRunInTimeOrder) {
    sim::Engine eng;
    std::vector<int> order;
    eng.schedule_at(300, [&] { order.push_back(3); });
    eng.schedule_at(100, [&] { order.push_back(1); });
    eng.schedule_at(200, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 300);
}

TEST(Engine, SameTimeEventsAreFifo) {
    sim::Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        eng.schedule_at(50, [&order, i] { order.push_back(i); });
    }
    eng.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, PastSchedulingClampsToNow) {
    sim::Engine eng;
    sim::Time seen = -1;
    eng.schedule_at(100, [&] {
        eng.schedule_at(10, [&] { seen = eng.now(); });  // in the past
    });
    eng.run();
    EXPECT_EQ(seen, 100);
}

TEST(Engine, NestedSchedulingFromEvents) {
    sim::Engine eng;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100) eng.schedule_after(10, chain);
    };
    eng.schedule_at(0, chain);
    eng.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eng.now(), 99 * 10);
}

TEST(Process, AdvanceMovesVirtualTime) {
    sim::Engine eng;
    sim::Time t1 = -1;
    sim::Time t2 = -1;
    eng.spawn("p", [&](sim::Process& p) {
        t1 = p.now();
        p.advance(sim::microseconds(5));
        t2 = p.now();
    });
    eng.run();
    EXPECT_EQ(t1, 0);
    EXPECT_EQ(t2, sim::microseconds(5));
}

TEST(Process, StartTimeIsHonoured) {
    sim::Engine eng;
    sim::Time started = -1;
    eng.spawn("late", [&](sim::Process& p) { started = p.now(); },
              sim::microseconds(42));
    eng.run();
    EXPECT_EQ(started, sim::microseconds(42));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
    sim::Engine eng;
    std::vector<std::pair<char, sim::Time>> log;
    eng.spawn("a", [&](sim::Process& p) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back('a', p.now());
            p.advance(100);
        }
    });
    eng.spawn("b", [&](sim::Process& p) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back('b', p.now());
            p.advance(150);
        }
    });
    eng.run();
    const std::vector<std::pair<char, sim::Time>> expect = {
        {'a', 0},   {'b', 0},   {'a', 100}, {'b', 150},
        {'a', 200}, {'b', 300},
    };
    EXPECT_EQ(log, expect);
}

TEST(Process, YieldLetsSameTimeEventsRun) {
    sim::Engine eng;
    bool event_ran = false;
    bool saw_event = false;
    eng.spawn("p", [&](sim::Process& p) {
        p.engine().schedule_at(p.now(), [&] { event_ran = true; });
        p.yield();
        saw_event = event_ran;
    });
    eng.run();
    EXPECT_TRUE(saw_event);
}

TEST(Process, ExceptionInBodyPropagatesFromRun) {
    sim::Engine eng;
    eng.spawn("bad", [&](sim::Process&) {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Process, ManyProcessesComplete) {
    sim::Engine eng;
    int done = 0;
    for (int i = 0; i < 500; ++i) {
        eng.spawn(numbered("p", i), [&done, i](sim::Process& p) {
            p.advance(i);
            ++done;
        });
    }
    eng.run();
    EXPECT_EQ(done, 500);
    EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Condition, NotifyWakesAllWaiters) {
    sim::Engine eng;
    sim::Condition cond;
    bool flag = false;
    int woken = 0;
    for (int i = 0; i < 4; ++i) {
        eng.spawn(numbered("w", i), [&](sim::Process& p) {
            cond.wait_until(p, [&] { return flag; });
            ++woken;
        });
    }
    eng.spawn("setter", [&](sim::Process& p) {
        p.advance(1000);
        flag = true;
        cond.notify_all(p.engine());
    });
    eng.run();
    EXPECT_EQ(woken, 4);
}

TEST(Condition, SpuriousWakeupsRecheckPredicate) {
    sim::Engine eng;
    sim::Condition cond;
    int value = 0;
    sim::Time completed_at = -1;
    eng.spawn("waiter", [&](sim::Process& p) {
        cond.wait_until(p, [&] { return value >= 3; });
        completed_at = p.now();
    });
    eng.spawn("ticker", [&](sim::Process& p) {
        for (int i = 0; i < 3; ++i) {
            p.advance(100);
            ++value;
            cond.notify_all(p.engine());
        }
    });
    eng.run();
    EXPECT_EQ(completed_at, 300);
}

TEST(Condition, DeadlockIsDetected) {
    sim::Engine eng;
    sim::Condition cond;
    eng.spawn("stuck", [&](sim::Process& p) { cond.wait(p); });
    EXPECT_THROW(eng.run(), sim::DeadlockError);
}

TEST(Condition, WaiterCount) {
    sim::Engine eng;
    sim::Condition cond;
    eng.spawn("w", [&](sim::Process& p) {
        p.engine().schedule_after(10, [&] {
            EXPECT_EQ(cond.waiter_count(), 1u);
            cond.notify_all(p.engine());
        });
        cond.wait(p);
    });
    eng.run();
    EXPECT_EQ(cond.waiter_count(), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
    sim::Xoshiro256 a(42);
    sim::Xoshiro256 b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    sim::Xoshiro256 a(1);
    sim::Xoshiro256 b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
    sim::Xoshiro256 r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const auto v = r.between(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowIsRoughlyUniform) {
    sim::Xoshiro256 r(12345);
    std::vector<int> buckets(8, 0);
    const int kDraws = 80000;
    for (int i = 0; i < kDraws; ++i) ++buckets[r.below(8)];
    for (int b : buckets) {
        EXPECT_GT(b, kDraws / 8 - 600);
        EXPECT_LT(b, kDraws / 8 + 600);
    }
}

// The Welford accumulator moved into obs::Histogram; its semantics are
// covered by obs_metrics_test.

TEST(Engine, DeterministicEventCountAcrossRuns) {
    auto run_once = [] {
        sim::Engine eng;
        for (int i = 0; i < 50; ++i) {
            eng.spawn(numbered("p", i), [i](sim::Process& p) {
                for (int j = 0; j < 10; ++j) p.advance((i * 7 + j) % 13);
            });
        }
        eng.run();
        return eng.events_executed();
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Fiber handoff: the cases that depend on how control moves between the
// engine and a process's own stack.

TEST(Handoff, InterleavingIsDeterministic) {
    sim::Engine eng;
    std::vector<std::pair<char, sim::Time>> log;
    eng.spawn("a", [&](sim::Process& p) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back('a', p.now());
            p.advance(100);
        }
    });
    eng.spawn("b", [&](sim::Process& p) {
        for (int i = 0; i < 3; ++i) {
            log.emplace_back('b', p.now());
            p.advance(150);
        }
    });
    eng.run();
    const std::vector<std::pair<char, sim::Time>> expect = {
        {'a', 0},   {'b', 0},   {'a', 100}, {'b', 150},
        {'a', 200}, {'b', 300},
    };
    EXPECT_EQ(log, expect);
}

TEST(Handoff, ExceptionPropagatesFromRun) {
    // Thrown on a resumed fiber, not on its first entry: the exception has
    // to cross a switch back to the engine's stack.
    sim::Engine eng;
    eng.spawn("bad", [&](sim::Process& p) {
        p.advance(10);
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Handoff, ShutdownKillsBlockedProcesses) {
    sim::Engine eng;
    sim::Condition cond;
    int reached = 0;
    for (int i = 0; i < 8; ++i) {
        eng.spawn(numbered("w", i), [&](sim::Process& p) {
            ++reached;
            cond.wait(p);
            ADD_FAILURE() << "process resumed past shutdown";
        });
    }
    // Run until deadlock (all waiters parked), then tear down while the
    // processes still hold live stacks; shutdown must unwind them all.
    EXPECT_THROW(eng.run(), sim::DeadlockError);
    EXPECT_EQ(reached, 8);
    EXPECT_EQ(eng.live_process_count(), 8u);
    eng.shutdown();
    EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Handoff, ManyProcessesComplete) {
    sim::Engine eng;
    int done = 0;
    for (int i = 0; i < 500; ++i) {
        eng.spawn(numbered("p", i), [&done, i](sim::Process& p) {
            p.advance(i % 37);
            p.yield();
            ++done;
        });
    }
    eng.run();
    EXPECT_EQ(done, 500);
    EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Handoff, DeepStackUseSurvivesHandoff) {
    // Touch a few KB of stack between yields to verify the fiber stacks
    // (and their guard machinery) hold real frames across switches.
    sim::Engine eng;
    std::uint64_t sum = 0;
    eng.spawn("deep", [&](sim::Process& p) {
        volatile std::uint64_t buf[512];
        for (std::uint64_t i = 0; i < 512; ++i) buf[i] = i;
        p.advance(10);
        for (std::uint64_t i = 0; i < 512; ++i) sum += buf[i];
    });
    eng.run();
    EXPECT_EQ(sum, 511u * 512u / 2u);
}

TEST(Handoff, RerunReproducesTrajectory) {
    auto run_once = [] {
        sim::Engine eng;
        std::vector<std::pair<int, sim::Time>> log;
        for (int i = 0; i < 20; ++i) {
            eng.spawn(numbered("p", i), [&log, i](sim::Process& p) {
                for (int j = 0; j < 5; ++j) {
                    p.advance((i * 13 + j * 7) % 29);
                    log.emplace_back(i, p.now());
                }
            });
        }
        eng.run();
        return std::make_tuple(log, eng.events_executed(), eng.now());
    };
    const auto first = run_once();
    EXPECT_EQ(first, run_once());
    EXPECT_EQ(std::get<0>(first).size(), 100u);
    // One start plus five advance resumptions per process; the slowest
    // process (i = 11) sums its five advances to 89 ns.
    EXPECT_EQ(std::get<1>(first), 120u);
    EXPECT_EQ(std::get<2>(first), 89);
}

#if defined(__SANITIZE_ADDRESS__)
#define NBE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NBE_TEST_ASAN 1
#endif
#endif

#if defined(NBE_TEST_ASAN)
namespace {
// UBSan would flag the index itself and stop first; this test is about
// what ASan sees.
__attribute__((noinline, no_sanitize("undefined"))) void overrun_local_array(
    int past_end) {
    volatile char buf[16] = {};
    buf[past_end] = 1;
    (void)buf[0];
}
}  // namespace
#endif

// The sanitizer leg runs the whole suite on fibers, which is only sound if
// ASan tracks the mmap'd fiber stacks: a local overrun inside a process body
// must be reported as a stack overflow, not missed or misattributed.
TEST(FiberAsanDeathTest, LocalOverrunOnFiberStackIsReported) {
#if defined(NBE_TEST_ASAN)
    auto overrun = [] {
        sim::Engine eng;
        eng.spawn("overrun", [](sim::Process& p) {
            p.advance(1);  // run from a resumed fiber, not the first entry
            volatile int past_end = 16;  // opaque to the compiler
            overrun_local_array(past_end);
        });
        eng.run();
    };
    EXPECT_DEATH(overrun(), "stack-buffer-overflow");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build (NBE_SANITIZE=address)";
#endif
}
