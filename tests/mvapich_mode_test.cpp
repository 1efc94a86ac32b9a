// Tests pinning down the MVAPICH-baseline behaviours the paper compares
// against (§VIII): lazy lock acquisition and close-time transfer batching.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/window.hpp"

using namespace nbe;

namespace {

JobConfig internode(int ranks, Mode mode = Mode::Mvapich) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = mode;
    cfg.fabric.ranks_per_node = 1;
    return cfg;
}

}  // namespace

TEST(MvapichMode, LazyLockTransfersNothingBeforeUnlock) {
    // The origin locks, puts, then sits in compute for 500 us before
    // unlocking. Under lazy acquisition the target's memory must still be
    // untouched 400 us in; under the new engine it is already written.
    auto probe = [](Mode mode) {
        std::int32_t at_400us = -1;
        std::int32_t at_end = -1;
        run(internode(2, mode), [&](Proc& p) {
            Window win = p.create_window(64);
            p.barrier();
            if (p.rank() == 0) {
                win.lock(LockType::Exclusive, 1);
                const std::int32_t v = 1;
                win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
                p.compute(sim::microseconds(500));
                win.unlock(1);
                char tok = 1;
                p.send(&tok, 1, 1, 9);
            } else {
                p.compute(sim::microseconds(400));
                at_400us = win.read<std::int32_t>(0);
                char tok = 0;
                p.recv(&tok, 1, 0, 9);
                at_end = win.read<std::int32_t>(0);
            }
        });
        return std::make_pair(at_400us, at_end);
    };
    const auto lazy = probe(Mode::Mvapich);
    EXPECT_EQ(lazy.first, 0);   // nothing moved before unlock
    EXPECT_EQ(lazy.second, 1);  // everything done by unlock's return
    const auto eager = probe(Mode::NewBlocking);
    EXPECT_EQ(eager.first, 1);  // the new engine transferred in-epoch
    EXPECT_EQ(eager.second, 1);
}

TEST(MvapichMode, GatsBatchHoldsReadyTargetsHostageToLateOnes) {
    // Two targets; T2 posts immediately, T1 posts 500 us late, and the
    // origin closes right after its puts. MVAPICH waits for *all* internode
    // targets before issuing to any, so the ready target's exposure epoch
    // absorbs the late one's delay; the new engine issues per-target.
    auto ready_target_wait = [](Mode mode) {
        double us = 0;
        run(internode(3, mode), [&](Proc& p) {
            Window win = p.create_window(4096);
            std::vector<std::byte> buf(1024, std::byte{1});
            p.barrier();
            if (p.rank() == 0) {
                const Rank g[] = {1, 2};
                win.start(g);
                win.put(buf.data(), buf.size(), 1, 0);
                win.put(buf.data(), buf.size(), 2, 0);
                win.complete();
            } else {
                if (p.rank() == 1) p.compute(sim::microseconds(500));
                const Rank g[] = {0};
                const auto t0 = p.now();
                win.post(g);
                win.wait_exposure();
                if (p.rank() == 2) us = sim::to_usec(p.now() - t0);
            }
        });
        return us;
    };
    EXPECT_GT(ready_target_wait(Mode::Mvapich), 490.0);
    EXPECT_LT(ready_target_wait(Mode::NewBlocking), 100.0);
    EXPECT_LT(ready_target_wait(Mode::NewNonblocking), 100.0);
}

TEST(MvapichMode, MixedNodeBatchWaitsPerChannel) {
    // Rank 0 runs GATS to rank 1 (same node) and rank 2 (other node); one
    // of them posts 500 us late. MVAPICH issues to intranode targets only
    // once every internode target is ready, but internode transfers never
    // wait for intranode ones (§VIII-B).
    auto exposure_wait = [](Mode mode, Rank late, Rank measured) {
        JobConfig cfg;
        cfg.ranks = 3;
        cfg.mode = mode;
        cfg.fabric.ranks_per_node = 2;
        double us = 0;
        run(cfg, [&](Proc& p) {
            Window win = p.create_window(4096);
            std::vector<std::byte> buf(1024, std::byte{1});
            p.barrier();
            if (p.rank() == 0) {
                const Rank g[] = {1, 2};
                win.start(g);
                win.put(buf.data(), buf.size(), 1, 0);
                win.put(buf.data(), buf.size(), 2, 0);
                win.complete();
            } else {
                if (p.rank() == late) p.compute(sim::microseconds(500));
                const Rank g[] = {0};
                const auto t0 = p.now();
                win.post(g);
                win.wait_exposure();
                if (p.rank() == measured) us = sim::to_usec(p.now() - t0);
            }
        });
        return us;
    };
    // Late internode target: the intranode batch waits for it in MVAPICH.
    EXPECT_GT(exposure_wait(Mode::Mvapich, 2, 1), 490.0);
    EXPECT_LT(exposure_wait(Mode::NewBlocking, 2, 1), 100.0);
    EXPECT_LT(exposure_wait(Mode::NewNonblocking, 2, 1), 100.0);
    // Late intranode target: the internode batch goes out regardless.
    for (Mode mode : {Mode::Mvapich, Mode::NewBlocking, Mode::NewNonblocking}) {
        EXPECT_LT(exposure_wait(mode, 1, 2), 100.0);
    }
}

TEST(MvapichMode, EagerTransferWhenTargetAlreadyReady) {
    // If the grant arrived before the RMA call, even MVAPICH transfers
    // inside the epoch (the paper's Fig. 3 origin overlaps in all series).
    double origin_epoch_us = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(1 << 20);
        std::vector<std::byte> buf(1 << 20, std::byte{1});
        p.barrier();
        if (p.rank() == 0) {
            p.compute(sim::microseconds(10));  // let the post land
            const Rank g[] = {1};
            const auto t0 = p.now();
            win.start(g);
            win.put(buf.data(), buf.size(), 1, 0);
            p.compute(sim::microseconds(1000));  // in-epoch overlap
            win.complete();
            origin_epoch_us = sim::to_usec(p.now() - t0);
        } else {
            const Rank g[] = {0};
            win.post(g);
            win.wait_exposure();
        }
    });
    // Overlapped: ~max(1000, 340) + eps, not 1340.
    EXPECT_LT(origin_epoch_us, 1100.0);
}

TEST(MvapichMode, EveryNonblockingSyncThrows) {
    int checked = 0;
    try {
        run(internode(2), [&](Proc& p) {
            Window win = p.create_window(64);
            (void)win.ifence();
        });
    } catch (const std::runtime_error&) {
        ++checked;
    }
    try {
        run(internode(2), [&](Proc& p) {
            Window win = p.create_window(64);
            (void)win.ilock(LockType::Shared, 1 - p.rank());
        });
    } catch (const std::runtime_error&) {
        ++checked;
    }
    try {
        run(internode(2), [&](Proc& p) {
            Window win = p.create_window(64);
            const Rank g[] = {1 - p.rank()};
            (void)win.istart(g);
        });
    } catch (const std::runtime_error&) {
        ++checked;
    }
    try {
        run(internode(2), [&](Proc& p) {
            Window win = p.create_window(64);
            const Rank g[] = {1 - p.rank()};
            (void)win.ipost(g);
        });
    } catch (const std::runtime_error&) {
        ++checked;
    }
    EXPECT_EQ(checked, 4);
}

TEST(MvapichMode, BlockingApiStillFullyFunctional) {
    // The whole blocking surface (fence, GATS, lock, lock_all, flush)
    // works in MVAPICH mode.
    std::int32_t sum = 0;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        if (p.rank() != 0) {
            const std::int32_t v = p.rank();
            win.accumulate(std::span<const std::int32_t>(&v, 1),
                           ReduceOp::Sum, 0, 0);
        }
        win.fence();
        if (p.rank() == 1) {
            win.lock_all();
            const std::int32_t v = 10;
            win.accumulate(std::span<const std::int32_t>(&v, 1),
                           ReduceOp::Sum, 0, 0);
            win.flush_all();
            win.unlock_all();
        }
        p.barrier();
        if (p.rank() == 0) sum = win.read<std::int32_t>(0);
    });
    EXPECT_EQ(sum, 1 + 2 + 10);
}

TEST(MvapichMode, LazyLockStillAppliesRecordedOpsInOrder) {
    std::vector<std::int32_t> vals;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            win.lock(LockType::Exclusive, 1);
            for (std::int32_t i = 0; i < 4; ++i) {
                win.put(std::span<const std::int32_t>(&i, 1), 1, 0);
            }
            win.unlock(1);  // replay happens here
            char tok = 1;
            p.send(&tok, 1, 1, 3);
        } else {
            char tok = 0;
            p.recv(&tok, 1, 0, 3);
            vals.push_back(win.read<std::int32_t>(0));
        }
    });
    ASSERT_EQ(vals.size(), 1u);
    EXPECT_EQ(vals[0], 3);  // last put wins: order preserved through replay
}

TEST(MvapichMode, FenceBatchWaitsForALateInternodeRankWithoutOps) {
    // Ranks 0 and 1 share a node, ranks 2 and 3 another. Rank 0 puts to
    // rank 1 only, before rank 1 (100 us late) has granted, so the put is
    // held for close-time batching: it may not issue before every
    // internode fence peer has granted, and rank 2, which rank 0 sends
    // nothing, reaches its fence 500 us late. Its grant must still count.
    JobConfig cfg;
    cfg.ranks = 4;
    cfg.mode = Mode::Mvapich;
    cfg.fabric.ranks_per_node = 2;
    cfg.obs.trace = true;
    Job job(cfg);
    std::vector<sim::Time> closed(4, -1);
    std::uint64_t landed = 0;
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) p.compute(sim::microseconds(100));
        if (p.rank() == 2) p.compute(sim::microseconds(500));
        win.fence();
        if (p.rank() == 0) {
            const std::uint64_t v = 42;
            win.put(std::span<const std::uint64_t>(&v, 1), 1, 0);
        }
        win.fence();
        closed[static_cast<std::size_t>(p.rank())] = p.now();
        if (p.rank() == 1) landed = win.read<std::uint64_t>(0);
    });
    const obs::Tracer& t = job.world().obs().tracer();
    std::vector<sim::Time> issued;
    t.for_each_event([&](const obs::TraceEvent& ev) {
        if (std::strcmp(t.schema(ev).name, "op.issue") == 0) {
            issued.push_back(ev.ts);
        }
    });
    EXPECT_EQ(landed, 42u);
    ASSERT_EQ(issued.size(), 1u);
    EXPECT_GT(issued[0], sim::microseconds(500));
    // The virtual times of the dense-peer-map engine, to the nanosecond.
    EXPECT_EQ(issued[0], 505613);
    EXPECT_EQ(closed, (std::vector<sim::Time>{506373, 506832, 504601, 504610}));
}
