// Completion exactness of the per-epoch outstanding-peer counter: an epoch
// completes at the packet that brings its last peer to the terminal state
// for its kind — done sent (fence), kDone received (exposure), unlock acked
// (lock_all) — never earlier, and never not at all (a counter decremented
// twice, or for a peer it already counted, underflows and the run hangs).
// Every case runs in all three modes. Also: the fence-done table stays
// bounded over a long fence loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/window.hpp"

using namespace nbe;
using Event = rma::Rma::EpochEvent;

namespace {

JobConfig config(int ranks, Mode mode, int ranks_per_node = 1) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = mode;
    cfg.fabric.ranks_per_node = ranks_per_node;
    return cfg;
}

/// True when `bytes` bytes at the start of `target`'s window all read `v`.
bool landed(rma::Rma& rma, Rank target, std::size_t bytes, std::byte v) {
    const std::byte* base = rma.win_base(target, 0);
    return std::all_of(base, base + bytes, [v](std::byte b) { return b == v; });
}

class Completion : public ::testing::TestWithParam<Mode> {};

INSTANTIATE_TEST_SUITE_P(Modes, Completion,
                         ::testing::Values(Mode::Mvapich, Mode::NewBlocking,
                                           Mode::NewNonblocking),
                         [](const auto& info) {
                             switch (info.param) {
                                 case Mode::Mvapich: return "Mvapich";
                                 case Mode::NewBlocking: return "NewBlocking";
                                 default: return "NewNonblocking";
                             }
                         });

}  // namespace

// Wait at Fence: one rank reaches the closing fence 1 ms late and only then
// puts 64 KiB to its neighbour. No rank may complete the fence before the
// late rank has closed it (its fence-done is what the others wait for), and
// no rank, the late one included, may complete it before its own put has
// landed (its done_sent toward that peer is what its counter waits for).
TEST_P(Completion, FenceWaitsForTheLateRanksDoneAndItsOwnPuts) {
    constexpr int kRanks = 64;
    constexpr Rank kLate = 37;
    constexpr std::size_t kBig = 64 * 1024;
    Job job(config(kRanks, GetParam()));
    sim::Time late_close = -1;
    std::vector<sim::Time> completed(kRanks, -1);
    std::vector<bool> put_landed(kRanks, false);
    job.rma().set_epoch_observer([&](const Event& ev) {
        if (ev.kind != EpochKind::Fence) return;
        const sim::Time now = job.world().engine().now();
        if (ev.what == Event::What::Close && ev.rank == kLate) late_close = now;
        if (ev.what == Event::What::Complete) {
            const std::size_t r = static_cast<std::size_t>(ev.rank);
            completed[r] = now;
            put_landed[r] =
                landed(job.rma(), (ev.rank + 1) % kRanks,
                       ev.rank == kLate ? kBig : 8, std::byte(ev.rank + 1));
        }
    });
    job.run([&](Proc& p) {
        Window win = p.create_window(kBig);
        win.fence();
        const bool late = p.rank() == kLate;
        if (late) p.compute(sim::microseconds(1000));
        std::vector<std::byte> src(late ? kBig : 8, std::byte(p.rank() + 1));
        win.put(src.data(), src.size(), (p.rank() + 1) % p.size(), 0);
        win.fence(rma::kNoSucceed);
    });
    ASSERT_GE(late_close, sim::microseconds(1000));
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_GT(completed[static_cast<std::size_t>(r)], late_close)
            << "rank " << r;
        EXPECT_TRUE(put_landed[static_cast<std::size_t>(r)]) << "rank " << r;
    }
}

// Late Complete at one of 32 origins: the target's exposure completes only
// when the last kDone, the late origin's, has arrived — and by then every
// origin's put has landed.
TEST_P(Completion, ExposureWaitsForTheLastDone) {
    constexpr int kOrigins = 32;
    constexpr Rank kLate = 17;
    Job job(config(kOrigins + 1, GetParam()));
    sim::Time late_close = -1;
    sim::Time exposure_done = -1;
    bool all_landed = false;
    job.rma().set_epoch_observer([&](const Event& ev) {
        const sim::Time now = job.world().engine().now();
        if (ev.what == Event::What::Close && ev.rank == kLate) late_close = now;
        if (ev.what == Event::What::Complete && ev.kind == EpochKind::Exposure) {
            exposure_done = now;
            all_landed = true;
            const std::byte* base = job.rma().win_base(0, 0);
            for (int o = 1; o <= kOrigins; ++o) {
                all_landed = all_landed && base[o] == std::byte(o);
            }
        }
    });
    job.run([&](Proc& p) {
        Window win = p.create_window(kOrigins + 1);
        p.barrier();
        if (p.rank() == 0) {
            std::vector<Rank> origins(kOrigins);
            for (int o = 0; o < kOrigins; ++o) origins[o] = o + 1;
            win.post(origins);
            win.wait_exposure();
        } else {
            const Rank target[] = {0};
            const std::byte v{static_cast<unsigned char>(p.rank())};
            win.start(target);
            win.put(&v, 1, 0, static_cast<std::size_t>(p.rank()));
            if (p.rank() == kLate) p.compute(sim::microseconds(1000));
            win.complete();
        }
    });
    ASSERT_GE(late_close, sim::microseconds(1000));
    EXPECT_GT(exposure_done, late_close);
    EXPECT_TRUE(all_landed);
}

// lock_all over 32 targets, with uneven put sizes and intranode and
// internode targets so the unlock acks come back spread out: unlock_all
// completes only after every kUnlockAck, so by then every target's lock
// manager has released the lock.
TEST_P(Completion, UnlockAllWaitsForEveryAck) {
    constexpr int kTargets = 32;
    Job job(config(kTargets + 1, GetParam(), /*ranks_per_node=*/4));
    int completions = 0;
    bool any_lock_held = true;
    job.rma().set_epoch_observer([&](const Event& ev) {
        if (ev.what != Event::What::Complete || ev.kind != EpochKind::LockAll) {
            return;
        }
        ++completions;
        any_lock_held = false;
        for (const obs::Record& rec : job.rma().diagnostic_records()) {
            if (rec.type() == "rma.lockmgr") any_lock_held = true;
        }
    });
    job.run([&](Proc& p) {
        Window win = p.create_window(64 * 1024);
        p.barrier();
        if (p.rank() == 0) {
            // Bulk puts borrow their buffer until the epoch completes.
            std::vector<std::vector<std::byte>> src;
            for (Rank t = 1; t <= kTargets; ++t) {
                src.emplace_back(t % 3 == 0 ? 32 * 1024 : 8, std::byte(t));
            }
            win.lock_all();
            for (Rank t = 1; t <= kTargets; ++t) {
                const auto& buf = src[static_cast<std::size_t>(t - 1)];
                win.put(buf.data(), buf.size(), t, 0);
            }
            win.unlock_all();
        }
        p.barrier();
    });
    EXPECT_EQ(completions, 1);
    EXPECT_FALSE(any_lock_held);
}

// The link to one of three lock_all targets dies while the epoch runs, after
// the healthy targets have acked their unlocks. The epoch fails with
// NBE_ERR_LINK_DOWN instead of hanging, and the acked peers' decrements
// leave nothing behind that a later epoch could trip over: a follow-up lock
// epoch to a healthy target completes normally.
TEST_P(Completion, AbortPartwayFailsTheEpochAndLeavesTheWindowUsable) {
    JobConfig cfg = config(4, GetParam());
    cfg.fabric.fault.enabled = true;
    cfg.fabric.fault.down.push_back(
        {0, 3, sim::milliseconds(5), sim::seconds(100)});
    Status aborted = NBE_SUCCESS;
    Status after = NBE_ERR_INTERNAL;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        p.compute(sim::milliseconds(10));
        if (p.rank() != 0) return;
        const std::byte v{1};
        win.lock_all();
        for (Rank t = 1; t <= 3; ++t) win.put(&v, 1, t, 0);
        Request close = job.rma().iunlock_all(0, win.id());
        p.wait(close);
        aborted = close.status();

        win.lock(LockType::Exclusive, 1);
        win.put(&v, 1, 1, 1);
        Request again = job.rma().iunlock(0, win.id(), 1);
        p.wait(again);
        after = again.status();
    });
    EXPECT_EQ(aborted, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(after, NBE_SUCCESS);
    EXPECT_EQ(job.rma().stats(0).epochs_aborted, 1u);
    EXPECT_EQ(job.rma().stats(0).epochs_completed, 1u);
}

// Each fence's fence-done count is dropped when that fence completes, so a
// long fence loop holds a small constant number of entries (the current
// fence, plus the next one's early arrivals) instead of one per fence.
TEST(FenceDones, LongFenceLoopKeepsTheTableBounded) {
    constexpr int kRanks = 8;
    constexpr int kFences = 1000;
    Job job(config(kRanks, Mode::NewNonblocking));
    std::size_t peak = 0;
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        const std::byte v{1};
        win.fence();
        for (int i = 0; i < kFences; ++i) {
            win.put(&v, 1, (p.rank() + 1) % p.size(), 0);
            win.fence();
            peak = std::max(peak, job.rma().fence_dones_size(p.rank(), win.id()));
        }
        win.fence(rma::kNoPrecede | rma::kNoSucceed);
    });
    EXPECT_LE(peak, 2u);
}
