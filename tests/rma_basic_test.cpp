// End-to-end basics of the RMA core: window creation, each epoch kind moves
// data correctly, and the communication calls have the right semantics in
// all three operating modes.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/window.hpp"

using namespace nbe;

namespace {

JobConfig cfg(int ranks, Mode mode = Mode::NewNonblocking) {
    JobConfig c;
    c.ranks = ranks;
    c.mode = mode;
    return c;
}

}  // namespace

class RmaBasicAllModes : public ::testing::TestWithParam<Mode> {};

INSTANTIATE_TEST_SUITE_P(Modes, RmaBasicAllModes,
                         ::testing::Values(Mode::Mvapich, Mode::NewBlocking,
                                           Mode::NewNonblocking),
                         [](const auto& info) {
                             switch (info.param) {
                                 case Mode::Mvapich: return "Mvapich";
                                 case Mode::NewBlocking: return "NewBlocking";
                                 default: return "NewNonblocking";
                             }
                         });

TEST_P(RmaBasicAllModes, FencePutMovesData) {
    std::array<int, 2> seen{0, 0};
    run(cfg(2, GetParam()), [&](Proc& p) {
        Window win = p.create_window(1024);
        win.fence();
        if (p.rank() == 0) {
            const std::int32_t v = 12345;
            win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
        }
        win.fence();
        seen[static_cast<std::size_t>(p.rank())] = win.read<std::int32_t>(0);
    });
    EXPECT_EQ(seen[1], 12345);
    EXPECT_EQ(seen[0], 0);
}

TEST_P(RmaBasicAllModes, FenceGetReadsRemote) {
    int got = 0;
    run(cfg(2, GetParam()), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) win.write<std::int32_t>(3, 777);
        win.fence();
        std::int32_t v = 0;
        if (p.rank() == 0) win.get(std::span<std::int32_t>(&v, 1), 1, 3);
        win.fence();
        if (p.rank() == 0) got = v;
    });
    EXPECT_EQ(got, 777);
}

TEST_P(RmaBasicAllModes, GatsPutToExposedTarget) {
    int got = 0;
    run(cfg(2, GetParam()), [&](Proc& p) {
        Window win = p.create_window(256);
        const Rank peer[] = {1 - p.rank()};
        if (p.rank() == 0) {
            win.start(peer);
            const double v = 2.5;
            win.put(std::span<const double>(&v, 1), 1, 4);
            win.complete();
        } else {
            win.post(peer);
            win.wait_exposure();
            got = static_cast<int>(win.read<double>(4) * 10);
        }
    });
    EXPECT_EQ(got, 25);
}

TEST_P(RmaBasicAllModes, ExclusiveLockPut) {
    int got = 0;
    run(cfg(2, GetParam()), [&](Proc& p) {
        Window win = p.create_window(256);
        if (p.rank() == 0) {
            win.lock(LockType::Exclusive, 1);
            const std::int64_t v = -9;
            win.put(std::span<const std::int64_t>(&v, 1), 1, 0);
            win.unlock(1);
            char token = 1;
            p.send(&token, 1, 1, 7);
        } else {
            char token = 0;
            p.recv(&token, 1, 0, 7);
            got = static_cast<int>(win.read<std::int64_t>(0));
        }
    });
    EXPECT_EQ(got, -9);
}

TEST_P(RmaBasicAllModes, AccumulateSumsAtTarget) {
    std::int64_t got = 0;
    const int ranks = 4;
    run(cfg(ranks, GetParam()), [&](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        if (p.rank() != 0) {
            const std::int64_t v = p.rank();
            win.accumulate(std::span<const std::int64_t>(&v, 1),
                           ReduceOp::Sum, 0, 0);
        }
        win.fence();
        if (p.rank() == 0) got = win.read<std::int64_t>(0);
    });
    EXPECT_EQ(got, 1 + 2 + 3);
}

TEST_P(RmaBasicAllModes, LockAllSharedUpdatesDisjointSlots) {
    std::vector<std::int32_t> values;
    const int ranks = 4;
    run(cfg(ranks, GetParam()), [&](Proc& p) {
        Window win = p.create_window(64);
        win.lock_all();
        const std::int32_t v = 100 + p.rank();
        win.put(std::span<const std::int32_t>(&v, 1), 0,
                static_cast<std::size_t>(p.rank()));
        win.unlock_all();
        p.barrier();
        if (p.rank() == 0) {
            for (int i = 0; i < ranks; ++i) {
                values.push_back(win.read<std::int32_t>(static_cast<std::size_t>(i)));
            }
        }
    });
    ASSERT_EQ(values.size(), 4u);
    for (int i = 0; i < ranks; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], 100 + i);
}

TEST(RmaBasic, LargePutMatchesPaperLatency) {
    // Calibration check: an internode 1 MB put epoch costs ~340 us
    // (paper §VIII-A).
    double epoch_us = 0.0;
    JobConfig c = cfg(2);
    c.fabric.ranks_per_node = 1;  // force the internode path
    run(c, [&](Proc& p) {
        Window win = p.create_window(1 << 20);
        std::vector<std::byte> buf(1 << 20, std::byte{0xAB});
        const Rank peer[] = {1 - p.rank()};
        if (p.rank() == 0) {
            const auto t0 = p.now();
            win.start(peer);
            win.put(buf.data(), buf.size(), 1, 0);
            win.complete();
            epoch_us = sim::to_usec(p.now() - t0);
        } else {
            win.post(peer);
            win.wait_exposure();
            EXPECT_EQ(win.read<unsigned char>(12345), 0xAB);
        }
    });
    EXPECT_GT(epoch_us, 300.0);
    EXPECT_LT(epoch_us, 380.0);
}

TEST(RmaBasic, FetchAndOpReturnsOldValue) {
    std::int64_t old0 = -1;
    std::int64_t final_val = -1;
    run(cfg(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) win.write<std::int64_t>(0, 10);
        p.barrier();
        if (p.rank() == 0) {
            win.lock(LockType::Exclusive, 1);
            std::int64_t old = 0;
            win.fetch_and_op<std::int64_t>(5, &old, ReduceOp::Sum, 1, 0);
            win.unlock(1);
            old0 = old;
        }
        p.barrier();
        if (p.rank() == 1) final_val = win.read<std::int64_t>(0);
    });
    EXPECT_EQ(old0, 10);
    EXPECT_EQ(final_val, 15);
}

TEST(RmaBasic, CompareAndSwapSwapsOnlyOnMatch) {
    std::int64_t old1 = -1;
    std::int64_t old2 = -1;
    std::int64_t final_val = -1;
    run(cfg(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) win.write<std::int64_t>(2, 42);
        p.barrier();
        if (p.rank() == 0) {
            std::int64_t old = 0;
            win.lock(LockType::Exclusive, 1);
            win.compare_and_swap<std::int64_t>(99, 42, &old, 1, 2);
            win.unlock(1);
            old1 = old;
            win.lock(LockType::Exclusive, 1);
            win.compare_and_swap<std::int64_t>(7, 42, &old, 1, 2);  // mismatch
            win.unlock(1);
            old2 = old;
        }
        p.barrier();
        if (p.rank() == 1) final_val = win.read<std::int64_t>(2);
    });
    EXPECT_EQ(old1, 42);
    EXPECT_EQ(old2, 99);
    EXPECT_EQ(final_val, 99);
}

TEST(RmaBasic, GetAccumulateFetchesThenApplies) {
    std::vector<std::int32_t> old(4, 0);
    std::vector<std::int32_t> final_vals;
    run(cfg(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) {
            for (std::size_t i = 0; i < 4; ++i) {
                win.write<std::int32_t>(i, static_cast<std::int32_t>(i * 10));
            }
        }
        p.barrier();
        if (p.rank() == 0) {
            const std::int32_t addend[4] = {1, 1, 1, 1};
            win.lock(LockType::Exclusive, 1);
            win.get_accumulate(std::span<const std::int32_t>(addend, 4),
                               std::span<std::int32_t>(old), ReduceOp::Sum, 1,
                               0);
            win.unlock(1);
        }
        p.barrier();
        if (p.rank() == 1) {
            for (std::size_t i = 0; i < 4; ++i) {
                final_vals.push_back(win.read<std::int32_t>(i));
            }
        }
    });
    EXPECT_EQ(old, (std::vector<std::int32_t>{0, 10, 20, 30}));
    EXPECT_EQ(final_vals, (std::vector<std::int32_t>{1, 11, 21, 31}));
}

TEST(RmaBasic, GetAccumulateNoOpIsPureFetch) {
    std::int32_t old = -1;
    std::int32_t final_val = -1;
    run(cfg(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) win.write<std::int32_t>(0, 55);
        p.barrier();
        if (p.rank() == 0) {
            std::int32_t dummy = 0;
            win.lock(LockType::Shared, 1);
            win.get_accumulate(std::span<const std::int32_t>(&dummy, 1),
                               std::span<std::int32_t>(&old, 1),
                               ReduceOp::NoOp, 1, 0);
            win.unlock(1);
        }
        p.barrier();
        if (p.rank() == 1) final_val = win.read<std::int32_t>(0);
    });
    EXPECT_EQ(old, 55);
    EXPECT_EQ(final_val, 55);
}

TEST(RmaBasic, PutToSelfWorks) {
    int got = 0;
    run(cfg(2), [&](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        if (p.rank() == 0) {
            const std::int32_t v = 31;
            win.put(std::span<const std::int32_t>(&v, 1), 0, 1);
        }
        win.fence();
        if (p.rank() == 0) got = win.read<std::int32_t>(1);
    });
    EXPECT_EQ(got, 31);
}

TEST(RmaBasic, MultipleWindowsAreIndependent) {
    int a = 0;
    int b = 0;
    run(cfg(2), [&](Proc& p) {
        Window w1 = p.create_window(64);
        Window w2 = p.create_window(64);
        w1.fence();
        w2.fence();
        if (p.rank() == 0) {
            const std::int32_t v1 = 1;
            const std::int32_t v2 = 2;
            w1.put(std::span<const std::int32_t>(&v1, 1), 1, 0);
            w2.put(std::span<const std::int32_t>(&v2, 1), 1, 0);
        }
        w1.fence();
        w2.fence();
        if (p.rank() == 1) {
            a = w1.read<std::int32_t>(0);
            b = w2.read<std::int32_t>(0);
        }
    });
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
}

TEST(RmaBasic, OpOutsideEpochThrows) {
    EXPECT_THROW(
        run(cfg(2),
            [&](Proc& p) {
                Window win = p.create_window(64);
                const std::int32_t v = 1;
                win.put(std::span<const std::int32_t>(&v, 1), 1 - p.rank(), 0);
            }),
        std::runtime_error);
}

TEST(RmaBasic, NonblockingApiThrowsInMvapichMode) {
    EXPECT_THROW(run(cfg(2, Mode::Mvapich),
                     [&](Proc& p) {
                         Window win = p.create_window(64);
                         (void)win.ifence();
                     }),
                 std::runtime_error);
}

TEST(RmaBasic, WindowBoundsAreEnforced) {
    EXPECT_THROW(run(cfg(2),
                     [&](Proc& p) {
                         Window win = p.create_window(16);
                         win.fence();
                         if (p.rank() == 0) {
                             std::array<std::byte, 32> big{};
                             win.put(big.data(), big.size(), 1, 0);
                         }
                         win.fence();
                     }),
                 std::out_of_range);
}

TEST(RmaBasic, FailedRunTearsDownWithFramesStillOnTheWire) {
    // Rank 0 throws while its puts queue on a credit-starved NIC. The run
    // stops with frames left on the fabric's wire channels, whose
    // completions hold epochs of an engine that is torn down first; the
    // job must still tear down cleanly (checked under the sanitizers).
    JobConfig c = cfg(4);
    c.fabric.ranks_per_node = 1;
    c.fabric.tx_credits = 1;
    Job job(c);
    EXPECT_THROW(job.run([](Proc& p) {
        Window win = p.create_window(1 << 16);
        std::vector<std::byte> buf(32 << 10, std::byte{0x5A});
        if (p.rank() == 0) {
            win.lock_all();
            for (Rank i = 0; i < 9; ++i) {
                win.put(buf.data(), buf.size(), 1 + i % 3, 0);
            }
            p.compute(sim::microseconds(20));
            throw std::runtime_error("rank 0 gives up mid-epoch");
        }
        p.barrier();
    }), std::runtime_error);
    bool queued = false;
    for (const auto& r : job.world().fabric().diagnostic_records()) {
        const std::string* rank = r.find("rank");
        const std::string* nic = r.find("nic_frames");
        if (r.type() == "fabric.rank" && *rank == "0" && *nic != "0") queued = true;
    }
    EXPECT_TRUE(queued) << job.world().fabric().diagnostic_dump();
}
