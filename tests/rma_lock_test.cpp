// Tests for passive-target locking: the LockManager unit semantics (FIFO
// fairness, shared batching) and end-to-end exclusive/shared lock epochs,
// lock_all, and the Late Unlock packet protocol.
#include <gtest/gtest.h>

#include <vector>

#include "core/epoch.hpp"
#include "core/window.hpp"

using namespace nbe;
using rma::LockManager;

namespace {

/// Releases origin's hold and returns the waiters it admitted, in order.
std::vector<LockManager::Waiter> release(LockManager& m, Rank origin) {
    std::vector<LockManager::Waiter> granted;
    m.release(origin,
              [&](const LockManager::Waiter& w) { granted.push_back(w); });
    return granted;
}

JobConfig internode(int ranks) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    return cfg;
}

}  // namespace

// ------------------------------------------------------------ LockManager

TEST(LockManager, ExclusiveGrantsOneAtATime) {
    LockManager m;
    EXPECT_TRUE(m.request(0, LockType::Exclusive));
    EXPECT_FALSE(m.request(1, LockType::Exclusive));
    EXPECT_EQ(m.exclusive_holder(), 0);
    const auto granted = release(m, 0);
    ASSERT_EQ(granted.size(), 1u);
    EXPECT_EQ(granted[0].origin, 1);
    EXPECT_EQ(m.exclusive_holder(), 1);
}

TEST(LockManager, SharedHoldersCoexist) {
    LockManager m;
    EXPECT_TRUE(m.request(0, LockType::Shared));
    EXPECT_TRUE(m.request(1, LockType::Shared));
    EXPECT_TRUE(m.request(2, LockType::Shared));
    EXPECT_EQ(m.shared_count(), 3);
    EXPECT_FALSE(m.request(3, LockType::Exclusive));
    EXPECT_TRUE(release(m, 0).empty());
    EXPECT_TRUE(release(m, 1).empty());
    EXPECT_TRUE(release(m, 2).size() == 1);  // exclusive waiter granted last
    EXPECT_EQ(m.exclusive_holder(), 3);
}

TEST(LockManager, FifoFairnessPreventsSharedOvertaking) {
    // A shared request arriving behind a queued exclusive request must not
    // jump the queue, even though it is compatible with the current holder.
    LockManager m;
    EXPECT_TRUE(m.request(0, LockType::Shared));
    EXPECT_FALSE(m.request(1, LockType::Exclusive));
    EXPECT_FALSE(m.request(2, LockType::Shared));  // queued, no overtaking
    EXPECT_EQ(m.shared_count(), 1);
    const auto g1 = release(m, 0);
    ASSERT_EQ(g1.size(), 1u);
    EXPECT_EQ(g1[0].origin, 1);  // the exclusive goes first
    const auto g2 = release(m, 1);
    ASSERT_EQ(g2.size(), 1u);
    EXPECT_EQ(g2[0].origin, 2);
}

TEST(LockManager, ReleaseGrantsSharedBatch) {
    LockManager m;
    EXPECT_TRUE(m.request(0, LockType::Exclusive));
    m.request(1, LockType::Shared);
    m.request(2, LockType::Shared);
    m.request(3, LockType::Shared);
    m.request(4, LockType::Exclusive);
    const auto granted = release(m, 0);
    ASSERT_EQ(granted.size(), 3u);  // all compatible shareds at once
    EXPECT_EQ(m.shared_count(), 3);
    EXPECT_EQ(m.queue_length(), 1u);  // the exclusive still waits
}

// ------------------------------------------------------------- end-to-end

TEST(Locks, ExclusiveSerializesReadModifyWrite) {
    // Two origins increment the same counter 20 times each under exclusive
    // locks: no update may be lost.
    std::int64_t final_value = -1;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() != 0) {
            for (int i = 0; i < 20; ++i) {
                std::int64_t old = 0;
                win.lock(LockType::Exclusive, 0);
                win.get(std::span<std::int64_t>(&old, 1), 0, 0);
                win.flush(0);
                const std::int64_t next = old + 1;
                win.put(std::span<const std::int64_t>(&next, 1), 0, 0);
                win.unlock(0);
            }
        }
        p.barrier();
        if (p.rank() == 0) final_value = win.read<std::int64_t>(0);
    });
    EXPECT_EQ(final_value, 40);
}

TEST(Locks, SharedLocksOverlapInTime) {
    // Two shared holders of the same target overlap; an exclusive pair
    // serializes. Compare makespans.
    auto makespan = [](LockType type) {
        sim::Time end = 0;
        JobConfig cfg = internode(3);
        run(cfg, [&](Proc& p) {
            Window win = p.create_window(64);
            p.barrier();
            if (p.rank() != 0) {
                win.lock(type, 0);
                // lock() returns before the grant; force acquisition so the
                // compute below really happens while holding the lock.
                std::int32_t probe = 0;
                win.get(std::span<std::int32_t>(&probe, 1), 0, 0);
                win.flush(0);
                p.compute(sim::microseconds(300));  // hold the lock
                win.unlock(0);
            }
            p.barrier();
            if (p.rank() == 0) end = p.now();
        });
        return end;
    };
    const auto shared = makespan(LockType::Shared);
    const auto exclusive = makespan(LockType::Exclusive);
    EXPECT_GT(exclusive, shared + sim::microseconds(250));
}

TEST(Locks, LockToSelfWorks) {
    std::int32_t v = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            win.lock(LockType::Exclusive, 0);
            const std::int32_t x = 3;
            win.put(std::span<const std::int32_t>(&x, 1), 0, 0);
            win.unlock(0);
            v = win.read<std::int32_t>(0);
        }
        p.barrier();
    });
    EXPECT_EQ(v, 3);
}

TEST(Locks, LockAllReachesEveryRank) {
    const int n = 5;
    std::vector<std::int32_t> got(static_cast<std::size_t>(n), 0);
    run(internode(n), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            win.lock_all();
            for (Rank t = 0; t < n; ++t) {
                const std::int32_t v = 70 + t;
                win.put(std::span<const std::int32_t>(&v, 1), t, 0);
            }
            win.unlock_all();
        }
        p.barrier();
        got[static_cast<std::size_t>(p.rank())] = win.read<std::int32_t>(0);
    });
    for (Rank t = 0; t < n; ++t) {
        EXPECT_EQ(got[static_cast<std::size_t>(t)], 70 + t);
    }
}

TEST(Locks, ConcurrentLockAllsShareEveryTarget) {
    // lock_all takes shared locks: two concurrent lock_all epochs must not
    // serialize against each other.
    sim::Time end = 0;
    run(internode(4), [&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        if (p.rank() < 2) {
            win.lock_all();
            p.compute(sim::microseconds(300));
            win.unlock_all();
        }
        p.barrier();
        if (p.rank() == 0) end = p.now();
    });
    // Overlapping holds: well under 2 x 300 us plus overheads.
    EXPECT_LT(sim::to_usec(end), 500.0);
}

TEST(Locks, ExclusiveBlocksLockAllUntilRelease) {
    sim::Time acquired_at = 0;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        if (p.rank() == 1) {
            win.lock(LockType::Exclusive, 0);
            p.compute(sim::microseconds(400));
            win.unlock(0);
        } else if (p.rank() == 2) {
            p.compute(sim::microseconds(50));
            win.lock_all();
            // Touch the exclusively-held target so the epoch really needed
            // rank 0's shared lock.
            const std::int32_t v = 1;
            win.put(std::span<const std::int32_t>(&v, 1), 0, 0);
            win.flush(0);
            acquired_at = p.now();
            win.unlock_all();
        }
        p.barrier();
    });
    EXPECT_GT(sim::to_usec(acquired_at), 395.0);
}

TEST(Locks, LockEpochWithNoOpsStillSynchronizes) {
    // An empty exclusive lock epoch still round-trips the lock.
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            const auto t0 = p.now();
            win.lock(LockType::Exclusive, 1);
            win.unlock(1);
            // Grant + unlock-ack round trips: a few microseconds.
            EXPECT_GT(sim::to_usec(p.now() - t0), 4.0);
        }
        p.barrier();
    });
}

TEST(Locks, DuplicateOpenLockToSameTargetThrows) {
    EXPECT_THROW(run(internode(2),
                     [&](Proc& p) {
                         Window win = p.create_window(64);
                         if (p.rank() == 0) {
                             win.lock(LockType::Shared, 1);
                             win.lock(LockType::Shared, 1);  // still open
                         }
                         p.barrier();
                     }),
                 std::runtime_error);
}

TEST(Locks, LocksToDistinctTargetsMayBeOpenConcurrently) {
    // MPI-3.0 allows one lock epoch per target concurrently.
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            win.lock(LockType::Shared, 1);
            win.lock(LockType::Shared, 2);
            const std::int32_t v = 5;
            win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
            win.put(std::span<const std::int32_t>(&v, 1), 2, 0);
            win.unlock(2);
            win.unlock(1);
        }
        p.barrier();
        if (p.rank() != 0) {
            EXPECT_EQ(win.read<std::int32_t>(0), 5);
        }
    });
}

TEST(Locks, QueuedLockEpochsTakeGrantsOldestFirst) {
    // With A_A_A_R, rank 0's three nonblocking lock epochs toward rank 2
    // are active at once, their requests queued at rank 2's lock manager
    // beside rank 1's. Each grant rank 0 receives belongs to its oldest
    // ungranted epoch: the epochs complete in open order, and the last
    // value rank 0 writes is its third.
    WinInfo info;
    info.access_after_access = true;
    Job job(internode(3));
    std::vector<std::uint64_t> completed;  // rank 0's epochs, by seq
    job.rma().set_epoch_observer([&](const rma::Rma::EpochEvent& ev) {
        if (ev.rank == 0 && ev.what == rma::Rma::EpochEvent::What::Complete) {
            completed.push_back(ev.seq);
        }
    });
    std::int32_t mine = 0;
    std::int32_t theirs = 0;
    job.run([&](Proc& p) {
        Window win = p.create_window(2 * sizeof(std::int32_t), info);
        if (p.rank() == 0) {
            const std::int32_t values[] = {1, 2, 3};
            std::vector<Request> unlocks;
            for (const std::int32_t& v : values) {
                win.lock(LockType::Exclusive, 2);
                win.put(std::span<const std::int32_t>(&v, 1), 2, 0);
                unlocks.push_back(win.iunlock(2));
            }
            EXPECT_EQ(job.rma().active_count(0, win.id()), 3u);
            p.wait_all(unlocks);
        } else if (p.rank() == 1) {
            const std::int32_t v = 10;
            win.lock(LockType::Exclusive, 2);
            win.put(std::span<const std::int32_t>(&v, 1), 2, 1);
            win.unlock(2);
        }
        p.barrier();
        if (p.rank() == 2) {
            mine = win.read<std::int32_t>(0);
            theirs = win.read<std::int32_t>(1);
        }
    });
    EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(mine, 3);
    EXPECT_EQ(theirs, 10);
}

TEST(Locks, AccumulatesUnderSharedLocksAreAtomic) {
    // Shared-lock accumulate storms must still sum exactly (element-wise
    // atomicity of MPI accumulate ops).
    std::int64_t total = -1;
    const int n = 6;
    run(internode(n), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() != 0) {
            for (int i = 0; i < 10; ++i) {
                win.lock(LockType::Shared, 0);
                const std::int64_t one = 1;
                win.accumulate(std::span<const std::int64_t>(&one, 1),
                               ReduceOp::Sum, 0, 0);
                win.unlock(0);
            }
        }
        p.barrier();
        if (p.rank() == 0) total = win.read<std::int64_t>(0);
    });
    EXPECT_EQ(total, (n - 1) * 10);
}

// Regression: the target's lock manager used to grant a lock the moment
// ordering rules allowed, even while a closed-but-incomplete fence epoch
// was still draining a slow origin's data into the window — passive
// traffic could then read bytes an active-target put had not delivered
// yet. The grant must be held until the exposure drain completes.
TEST(Locks, GrantWaitsForDrainingFenceExposure) {
    constexpr std::size_t kBytes = 4u << 20;
    constexpr std::size_t kElems = kBytes / sizeof(std::int32_t);
    std::int32_t seen = -1;
    Job job(internode(3));
    job.run([&](Proc& p) {
        Window win = p.create_window(kBytes);
        win.fence();
        if (p.rank() == 2) {
            // Large put: after rank 2 closes, the 2->0 link keeps
            // serializing these bytes ahead of the done marker, so rank 0's
            // fence epoch drains long after rank 1's (whose links are
            // empty) has completed.
            std::vector<std::int32_t> big(kElems, 42);
            win.put(std::span<const std::int32_t>(big), 0, 0);
            win.fence(rma::kNoSucceed);
        } else if (p.rank() == 0) {
            win.fence(rma::kNoSucceed);
        } else {
            Request rf = win.ifence(rma::kNoSucceed);
            p.compute(sim::microseconds(100));  // rank 0 has closed by now
            std::int32_t got = -1;
            win.lock(LockType::Shared, 0);
            win.get(std::span<std::int32_t>(&got, 1), 0, kElems - 1);
            win.unlock(0);
            seen = got;
            p.wait(rf);
        }
        p.barrier();
    });
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(job.rma().stats(0).lock_grants_held, 1u);
}

// The held grant above is published like every other RmaStats field, per
// rank and in the job total.
TEST(Locks, HeldLockGrantReachesTheMetricsRegistry) {
    constexpr std::size_t kBytes = 4u << 20;
    constexpr std::size_t kElems = kBytes / sizeof(std::int32_t);
    JobConfig cfg = internode(3);
    cfg.obs.metrics = true;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(kBytes);
        win.fence();
        if (p.rank() == 2) {
            std::vector<std::int32_t> big(kElems, 42);
            win.put(std::span<const std::int32_t>(big), 0, 0);
            win.fence(rma::kNoSucceed);
        } else if (p.rank() == 0) {
            win.fence(rma::kNoSucceed);
        } else {
            Request rf = win.ifence(rma::kNoSucceed);
            p.compute(sim::microseconds(100));
            std::int32_t got = -1;
            win.lock(LockType::Shared, 0);
            win.get(std::span<std::int32_t>(&got, 1), 0, kElems - 1);
            win.unlock(0);
            p.wait(rf);
        }
        p.barrier();
    });
    obs::Registry& reg = job.world().obs().metrics();
    reg.collect();
    const obs::Counter* total = reg.find_counter("rma.total.lock_grants_held");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->value(), 1u);
    const obs::Counter* rank0 = reg.find_counter("rma.rank0.lock_grants_held");
    ASSERT_NE(rank0, nullptr);
    EXPECT_EQ(rank0->value(), 1u);
}
