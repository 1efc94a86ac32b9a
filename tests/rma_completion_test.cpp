// Completion exactness of the per-epoch outstanding-peer counter: an epoch
// completes at the packet that brings its last peer to the terminal state
// for its kind — done sent (fence), kDone received (exposure), unlock acked
// (lock_all) — never earlier, and never not at all (a counter decremented
// twice, or for a peer it already counted, underflows and the run hangs).
// Every case runs in all three modes. Also: the fence-done table stays
// bounded over a long fence loop, and a fence, which keeps per-peer state
// only for the ranks it sends ops to, still reports, matches and
// completes toward every rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
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

// A fence open while a GATS epoch on the same window runs and completes:
// each rank fences, exposes to its left neighbour and accesses its right
// one, puts inside the GATS epoch, then puts to its left neighbour inside
// the fence (a peer the fence meets only at that op), and closes the fence
// without opening another.
TEST_P(Completion, FenceAroundAGatsEpochMovesAllData) {
    constexpr int kRanks = 3;
    Job job(config(kRanks, GetParam(), /*ranks_per_node=*/2));
    std::vector<std::uint64_t> got(2 * kRanks, 0);
    job.run([&](Proc& p) {
        Window win = p.create_window(2 * sizeof(std::uint64_t));
        const Rank r = p.rank();
        const Rank right[] = {(r + 1) % kRanks};
        const Rank left[] = {(r + kRanks - 1) % kRanks};
        win.fence();
        win.post(left);
        win.start(right);
        const std::uint64_t a = 100 + static_cast<std::uint64_t>(r);
        win.put(std::span<const std::uint64_t>(&a, 1), right[0], 0);
        win.complete();
        win.wait_exposure();
        const std::uint64_t b = 200 + static_cast<std::uint64_t>(r);
        win.put(std::span<const std::uint64_t>(&b, 1), left[0], 1);
        win.fence(rma::kNoSucceed);
        got[2 * static_cast<std::size_t>(r)] = win.read<std::uint64_t>(0);
        got[2 * static_cast<std::size_t>(r) + 1] = win.read<std::uint64_t>(1);
    });
    EXPECT_EQ(got, (std::vector<std::uint64_t>{102, 201, 100, 202, 101, 200}));
    for (Rank r = 0; r < kRanks; ++r) {
        EXPECT_EQ(job.rma().stats(r).protocol_errors, 0u) << "rank " << r;
        EXPECT_EQ(job.rma().stats(r).epochs_opened,
                  job.rma().stats(r).epochs_completed)
            << "rank " << r;
    }
}

// A fence meets a peer at its first op. Here that op comes after a GATS
// access epoch toward the same peer has taken the next access id and is
// still waiting for its grant (the target posts 200 us later). The op
// belongs to the fence, whose grant is already in, so it must go out at
// once and land long before the post.
TEST(FencePeers, OpAfterAGatsEpochUsesTheFencesAccessId) {
    Job job(config(2, Mode::NewNonblocking));
    std::uint64_t early = 0;
    std::uint64_t after = 0;
    Status gats = NBE_ERR_INTERNAL;
    job.run([&](Proc& p) {
        Window win = p.create_window(sizeof(std::uint64_t));
        win.fence();
        if (p.rank() == 0) {
            const Rank to[] = {1};
            win.start(to);
            Request complete = win.icomplete();
            const std::uint64_t v = 5;
            win.put(std::span<const std::uint64_t>(&v, 1), 1, 0);
            win.fence();
            p.wait(complete);
            gats = complete.status();
        } else {
            p.compute(sim::microseconds(100));
            // Raw bytes: a probe of the transfer, not an access of the
            // application's.
            std::memcpy(&early, win.base(), sizeof(early));
            p.compute(sim::microseconds(100));
            const Rank from[] = {0};
            win.post(from);
            win.wait_exposure();
            win.fence();
            after = win.read<std::uint64_t>(0);
        }
    });
    EXPECT_EQ(early, 5u);
    EXPECT_EQ(after, 5u);
    EXPECT_EQ(gats, NBE_SUCCESS);
    EXPECT_EQ(job.rma().stats(0).protocol_errors, 0u);
    EXPECT_EQ(job.rma().stats(1).protocol_errors, 0u);
}

// A lock-only window never sizes the ⟨a,e,g⟩ counters. A lock epoch stuck
// behind a lock that is never released still reports its target as
// ungranted, with both counters read as 0.
TEST_P(Completion, LockDeadlockDiagnosticsReadAbsentCountersAsZero) {
    Job job(config(3, GetParam()));
    EXPECT_THROW(job.run([&](Proc& p) {
                     Window win = p.create_window(sizeof(std::uint64_t));
                     if (p.rank() == 1) {
                         win.lock(LockType::Exclusive, 2);
                         win.flush(2);  // holds the lock, never unlocks
                     }
                     p.barrier();
                     if (p.rank() == 0) {
                         const std::uint64_t v = 7;
                         win.lock(LockType::Exclusive, 2);
                         win.put(std::span<const std::uint64_t>(&v, 1), 2, 0);
                         win.unlock(2);
                     }
                 }),
                 sim::DeadlockError);
    std::vector<std::string> rank0;
    for (const obs::Record& rec : job.rma().diagnostic_records()) {
        const std::string* rank = rec.find("rank");
        if (rec.type() == "rma.epoch" && rank != nullptr && *rank == "0") {
            rank0.push_back(rec.render());
        }
    }
    const std::vector<std::string> want = {
        "rma.epoch rank=0 win=0 seq=1 kind=lock phase=active state=closed "
        "peers=[2] granted=0/1 ops_done=0/1 waiting=2:ungranted(a=0,g=0)"};
    EXPECT_EQ(rank0, want);
}

// Rank 9 of 10 never reaches a fence, so every other rank hangs in its
// closing fence. The diagnostics still account for all ten fence peers:
// rank 9 is listed ungranted on every rank, whether the rank sent it an
// op (rank 8) or not (the others).
TEST_P(Completion, FenceDeadlockDiagnosticsListEveryUngrantedRank) {
    constexpr int kRanks = 10;
    Job job(config(kRanks, GetParam(), /*ranks_per_node=*/4));
    EXPECT_THROW(job.run([&](Proc& p) {
                     Window win = p.create_window(sizeof(std::uint64_t));
                     if (p.rank() == kRanks - 1) return;
                     win.fence();
                     const std::uint64_t v = 7;
                     win.put(std::span<const std::uint64_t>(&v, 1),
                             p.rank() + 1, 0);
                     win.fence();
                 }),
                 sim::DeadlockError);
    std::vector<std::string> fences;
    for (const obs::Record& rec : job.rma().diagnostic_records()) {
        const std::string* rank = rec.find("rank");
        if (rec.type() == "rma.epoch" && rank != nullptr &&
            (*rank == "0" || *rank == "8")) {
            fences.push_back(rec.render());
        }
    }
    const std::string head =
        "rma.epoch rank=0 win=0 seq=1 kind=fence phase=active state=closed "
        "peers=[0,1,2,3,4,5,6,7,...] granted=9/10 ";
    const std::string rank0 =
        GetParam() == Mode::Mvapich
            ? head + "ops_done=0/1 waiting=1:ops(0/1),9:ungranted(a=1,g=0)"
            : head + "ops_done=1/1 waiting=9:ungranted(a=1,g=0)";
    std::string next;
    for (Rank t = 0; t < kRanks; ++t) {
        next += (t != 0 ? "," : "") + std::to_string(t) +
                ":ungranted(a=0,g=" + (t < kRanks - 1 ? "1)" : "0)");
    }
    const std::string deferred =
        " win=0 seq=2 kind=fence phase=deferred state=open "
        "peers=[0,1,2,3,4,5,6,7,...] granted=0/10 ops_done=0/0 waiting=" +
        next;
    const std::vector<std::string> want = {
        rank0,
        "rma.epoch rank=0" + deferred,
        "rma.epoch rank=8 win=0 seq=1 kind=fence phase=active state=closed "
        "peers=[0,1,2,3,4,5,6,7,...] granted=9/10 ops_done=0/1 "
        "waiting=9:ungranted(a=1,g=0)",
        "rma.epoch rank=8" + deferred,
    };
    EXPECT_EQ(fences, want);
}
