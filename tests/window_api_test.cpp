// Tests for the Window/Proc public API surface: typed transfers, local
// accessors, bounds enforcement, multiple windows, and call accounting.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/window.hpp"

using namespace nbe;

namespace {

JobConfig cfg2() {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    return cfg;
}

}  // namespace

TEST(WindowApi, TypedPutGetRoundTripsEachType) {
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(256);
        win.fence();
        if (p.rank() == 0) {
            const std::int32_t i32[2] = {-1, 2};
            const std::int64_t i64[1] = {-3};
            const std::uint64_t u64[1] = {4};
            const double f64[2] = {5.5, -6.5};
            win.put(std::span<const std::int32_t>(i32), 1, 0);   // bytes 0-7
            win.put(std::span<const std::int64_t>(i64), 1, 1);   // bytes 8-15
            win.put(std::span<const std::uint64_t>(u64), 1, 2);  // bytes 16-23
            win.put(std::span<const double>(f64), 1, 3);         // bytes 24-39
        }
        win.fence();
        if (p.rank() == 1) {
            EXPECT_EQ(win.read<std::int32_t>(0), -1);
            EXPECT_EQ(win.read<std::int32_t>(1), 2);
            EXPECT_EQ(win.read<std::int64_t>(1), -3);
            EXPECT_EQ(win.read<std::uint64_t>(2), 4u);
            EXPECT_DOUBLE_EQ(win.read<double>(3), 5.5);
            EXPECT_DOUBLE_EQ(win.read<double>(4), -6.5);
        }
        win.fence(rma::kNoSucceed);
    });
}

TEST(WindowApi, TypedGetSpans) {
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) {
            for (std::size_t i = 0; i < 4; ++i) {
                win.write<std::int32_t>(i, static_cast<std::int32_t>(i * 3));
            }
        }
        p.barrier();
        if (p.rank() == 0) {
            std::array<std::int32_t, 4> out{};
            win.lock(LockType::Shared, 1);
            win.get(std::span<std::int32_t>(out), 1, 0);
            win.unlock(1);
            EXPECT_EQ(out, (std::array<std::int32_t, 4>{0, 3, 6, 9}));
        }
        p.barrier();
    });
}

TEST(WindowApi, WindowMemoryIsZeroInitialized) {
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(128);
        for (std::size_t i = 0; i < 128 / sizeof(std::uint64_t); ++i) {
            EXPECT_EQ(win.read<std::uint64_t>(i), 0u);
        }
        p.barrier();
    });
}

TEST(WindowApi, LocalWriteIsVisibleThroughBase) {
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(64);
        win.write<double>(2, 9.25);
        double v = 0;
        std::memcpy(&v, win.base() + 2 * sizeof(double), sizeof v);
        EXPECT_DOUBLE_EQ(v, 9.25);
        EXPECT_EQ(win.size_bytes(), 64u);
        p.barrier();
    });
}

TEST(WindowApi, WindowIdsAreSequentialPerJob) {
    run(cfg2(), [&](Proc& p) {
        Window w0 = p.create_window(16);
        Window w1 = p.create_window(16);
        Window w2 = p.create_window(16);
        EXPECT_EQ(w0.id(), 0u);
        EXPECT_EQ(w1.id(), 1u);
        EXPECT_EQ(w2.id(), 2u);
    });
}

TEST(WindowApi, GetBeyondBoundsThrows) {
    EXPECT_THROW(run(cfg2(),
                     [&](Proc& p) {
                         Window win = p.create_window(8);
                         win.fence();
                         if (p.rank() == 0) {
                             std::array<std::byte, 16> out{};
                             win.get(out.data(), out.size(), 1, 0);
                         }
                         win.fence(rma::kNoSucceed);
                     }),
                 std::out_of_range);
}

// The op is rejected at the call, which fails the calling process.
TEST(WindowApi, FencePutToARankOutsideTheJobThrows) {
    for (const Rank bad : {2, -1}) {
        EXPECT_THROW(run(cfg2(),
                         [&](Proc& p) {
                             Window win = p.create_window(8);
                             win.fence();
                             if (p.rank() == 0) {
                                 const std::byte v{1};
                                 win.put(&v, 1, bad, 0);
                             }
                             win.fence(rma::kNoSucceed);
                         }),
                     std::runtime_error)
            << "target " << bad;
    }
}

TEST(WindowApi, AccumulateBeyondBoundsThrows) {
    EXPECT_THROW(run(cfg2(),
                     [&](Proc& p) {
                         Window win = p.create_window(8);
                         win.fence();
                         if (p.rank() == 0) {
                             const std::int64_t vs[4] = {1, 2, 3, 4};
                             win.accumulate(
                                 std::span<const std::int64_t>(vs),
                                 ReduceOp::Sum, 1, 0);
                         }
                         win.fence(rma::kNoSucceed);
                     }),
                 std::out_of_range);
}

TEST(WindowApi, CompareAndSwapBeyondBoundsThrows) {
    EXPECT_THROW(run(cfg2(),
                     [&](Proc& p) {
                         Window win = p.create_window(4);
                         if (p.rank() == 0) {
                             std::int64_t old = 0;
                             win.lock(LockType::Exclusive, 1);
                             win.compare_and_swap<std::int64_t>(1, 0, &old, 1,
                                                                0);
                             win.unlock(1);
                         }
                         p.barrier();
                     }),
                 std::out_of_range);
}

TEST(WindowApi, EveryCallAdvancesVirtualTime) {
    // The per-call epsilon (rt::kCallOverhead) must be charged.
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(64);
        const auto t0 = p.now();
        win.lock(LockType::Shared, 1 - p.rank());
        EXPECT_GE(p.now() - t0, rt::kCallOverhead);
        const auto t1 = p.now();
        const std::int32_t v = 1;
        win.put(std::span<const std::int32_t>(&v, 1), 1 - p.rank(), 0);
        EXPECT_GE(p.now() - t1, rt::kCallOverhead);
        win.unlock(1 - p.rank());
        p.barrier();
    });
}

TEST(WindowApi, RmaStatsTrackBytes) {
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(4096);
        win.fence();
        if (p.rank() == 0) {
            std::vector<std::byte> buf(1024, std::byte{1});
            win.put(buf.data(), buf.size(), 1, 0);
        }
        win.fence(rma::kNoSucceed);
        if (p.rank() == 0) {
            EXPECT_GE(p.rma_stats().bytes_put, 1024u);
            EXPECT_GE(p.rma_stats().ops_issued, 1u);
            EXPECT_GE(p.rma_stats().dones_sent, 1u);
        }
    });
}

TEST(WindowApi, SweepsHappenOnEveryCall) {
    // Opportunistic message progression (§IV-A): each RMA call sweeps.
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(64);
        const auto before = p.rma_stats().sweeps;
        win.lock(LockType::Shared, 1 - p.rank());
        win.unlock(1 - p.rank());
        EXPECT_GE(p.rma_stats().sweeps, before + 2);
        p.barrier();
    });
}

TEST(WindowApi, FetchAndOpOnDouble) {
    double old = -1;
    double final_val = -1;
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) win.write<double>(0, 1.5);
        p.barrier();
        if (p.rank() == 0) {
            win.lock(LockType::Exclusive, 1);
            win.fetch_and_op<double>(2.25, &old, ReduceOp::Sum, 1, 0);
            win.unlock(1);
        }
        p.barrier();
        if (p.rank() == 1) final_val = win.read<double>(0);
    });
    EXPECT_DOUBLE_EQ(old, 1.5);
    EXPECT_DOUBLE_EQ(final_val, 3.75);
}

TEST(WindowApi, LargeAccumulateUsesRendezvousAndStillSums) {
    // > 8 KB accumulates take the rendezvous path (paper §VIII-A); the
    // result must be identical.
    const std::size_t n = 4096;  // 32 KB of int64
    std::vector<std::int64_t> expect(n);
    std::vector<std::int64_t> got(n);
    run(cfg2(), [&](Proc& p) {
        Window win = p.create_window(n * sizeof(std::int64_t));
        if (p.rank() == 1) {
            for (std::size_t i = 0; i < n; ++i) {
                win.write<std::int64_t>(i, static_cast<std::int64_t>(i));
            }
        }
        p.barrier();
        if (p.rank() == 0) {
            std::vector<std::int64_t> ones(n, 1);
            win.lock(LockType::Exclusive, 1);
            win.accumulate(std::span<const std::int64_t>(ones), ReduceOp::Sum,
                           1, 0);
            win.unlock(1);
        }
        p.barrier();
        if (p.rank() == 1) {
            for (std::size_t i = 0; i < n; ++i) {
                got[i] = win.read<std::int64_t>(i);
                expect[i] = static_cast<std::int64_t>(i) + 1;
            }
        }
    });
    EXPECT_EQ(got, expect);
}

TEST(WindowApi, AccumulateRendezvousCostsExtraRoundTrip) {
    auto acc_time = [](std::size_t count) {
        double us = 0;
        JobConfig cfg;
        cfg.ranks = 2;
        cfg.fabric.ranks_per_node = 1;
        run(cfg, [&](Proc& p) {
            Window win = p.create_window(count * 8);
            std::vector<std::int64_t> v(count, 1);
            p.barrier();
            if (p.rank() == 0) {
                const auto t0 = p.now();
                win.lock(LockType::Exclusive, 1);
                win.accumulate(std::span<const std::int64_t>(v), ReduceOp::Sum,
                               1, 0);
                win.flush(1);
                us = sim::to_usec(p.now() - t0);
                win.unlock(1);
            }
            p.barrier();
        });
        return us;
    };
    // Same payload just under / just over the 8 KB rendezvous threshold:
    // the large one pays an extra RTS/CTS round trip beyond the bandwidth
    // difference.
    const double small = acc_time(1024);       // 8 KB exactly: eager
    const double large = acc_time(1025);       // 8 KB + 8: rendezvous
    EXPECT_GT(large - small, 2.0);             // > 2 us of handshake
}
