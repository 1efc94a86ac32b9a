// Stress and edge-case tests for the DES kernel beyond the basic suite:
// large process counts, deep event chains, condition storms, and engine
// shutdown behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
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

TEST(SimStress, TwoThousandProcesses) {
    sim::Engine eng;
    std::int64_t sum = 0;
    for (int i = 0; i < 2000; ++i) {
        eng.spawn(numbered("p", i), [&sum, i](sim::Process& p) {
            p.advance(i % 7);
            sum += i;
        });
    }
    eng.run();
    EXPECT_EQ(sum, 2000LL * 1999 / 2);
}

TEST(SimStress, DeepSameTimeEventChain) {
    sim::Engine eng;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 50000) eng.schedule_at(eng.now(), chain);
    };
    eng.schedule_at(0, chain);
    eng.run();
    EXPECT_EQ(count, 50000);
    EXPECT_EQ(eng.now(), 0);  // all at the same instant
}

TEST(SimStress, ProducersAndConsumersThroughConditions) {
    sim::Engine eng;
    sim::Condition cond;
    std::vector<int> queue;
    int consumed = 0;
    const int kItems = 200;
    eng.spawn("producer", [&](sim::Process& p) {
        for (int i = 0; i < kItems; ++i) {
            p.advance(10);
            queue.push_back(i);
            cond.notify_all(p.engine());
        }
    });
    for (int c = 0; c < 3; ++c) {
        eng.spawn(numbered("consumer", c), [&](sim::Process& p) {
            while (consumed < kItems) {
                cond.wait_until(
                    p, [&] { return !queue.empty() || consumed >= kItems; });
                if (!queue.empty()) {
                    queue.pop_back();
                    if (++consumed == kItems) cond.notify_all(p.engine());
                }
            }
        });
    }
    eng.run();
    EXPECT_EQ(consumed, kItems);
}

TEST(SimStress, InterleavedAdvanceAndEvents) {
    sim::Engine eng;
    std::vector<int> order;
    eng.spawn("proc", [&](sim::Process& p) {
        for (int i = 0; i < 5; ++i) {
            order.push_back(100 + i);
            p.advance(20);
        }
    });
    for (int i = 0; i < 5; ++i) {
        eng.schedule_at(10 + 20 * i, [&order, i] { order.push_back(i); });
    }
    eng.run();
    // Process runs at t=0,20,40,... events at t=10,30,50,...
    const std::vector<int> expect = {100, 0, 101, 1, 102, 2, 103, 3, 104, 4};
    EXPECT_EQ(order, expect);
}

TEST(SimStress, ShutdownKillsParkedProcessesCleanly) {
    bool unwound = false;
    {
        sim::Engine eng;
        sim::Condition never;
        eng.spawn("stuck", [&](sim::Process& p) {
            struct Sentinel {
                bool* flag;
                ~Sentinel() { *flag = true; }
            } s{&unwound};
            never.wait(p);  // parked forever
        });
        EXPECT_THROW(eng.run(), sim::DeadlockError);
        // Engine destructor unwinds the parked process.
    }
    EXPECT_TRUE(unwound);
}

TEST(SimStress, ShutdownIsIdempotent) {
    sim::Engine eng;
    eng.spawn("quick", [](sim::Process& p) { p.advance(1); });
    eng.run();
    eng.shutdown();
    eng.shutdown();
    EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(SimStress, FailureInOneProcessStopsTheRun) {
    sim::Engine eng;
    int survivors_progress = 0;
    eng.spawn("bomb", [](sim::Process& p) {
        p.advance(100);
        throw std::runtime_error("detonated");
    });
    eng.spawn("worker", [&](sim::Process& p) {
        for (int i = 0; i < 1000; ++i) {
            p.advance(1000);
            ++survivors_progress;
        }
    });
    EXPECT_THROW(eng.run(), std::runtime_error);
    // The worker was cut off shortly after the failure at t=100.
    EXPECT_LT(survivors_progress, 5);
}

TEST(SimStress, EventCountGrowsDeterministically) {
    auto events_for = [](int procs) {
        sim::Engine eng;
        for (int i = 0; i < procs; ++i) {
            eng.spawn(numbered("p", i), [](sim::Process& p) {
                for (int j = 0; j < 10; ++j) p.advance(5);
            });
        }
        eng.run();
        return eng.events_executed();
    };
    const auto e10 = events_for(10);
    const auto e20 = events_for(20);
    EXPECT_EQ(e20, 2 * e10);  // linear in process count
}

TEST(SimStress, NegativeAdvanceClampsToZero) {
    sim::Engine eng;
    sim::Time after = -1;
    eng.spawn("p", [&](sim::Process& p) {
        p.advance(-100);
        after = p.now();
    });
    eng.run();
    EXPECT_EQ(after, 0);
}

TEST(SimStress, NotifyWithoutWaitersIsHarmless) {
    sim::Engine eng;
    sim::Condition cond;
    eng.spawn("p", [&](sim::Process& p) {
        cond.notify_all(p.engine());
        p.advance(1);
    });
    eng.run();
    EXPECT_EQ(cond.waiter_count(), 0u);
}
