// Tests for GATS epoch matching: the FIFO matching rule (paper §VI-A rule
// 3), the O(1) counter-triple scheme (§VII-B) including the paper's own
// worked example, persistence of granted-access notifications, and
// multi-target groups.
#include <gtest/gtest.h>

#include <vector>

#include "core/epoch.hpp"
#include "core/window.hpp"

using namespace nbe;

namespace {

JobConfig internode(int ranks) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    return cfg;
}

}  // namespace

// --------------------------------------------------------- FIFO matching

TEST(GatsMatching, ExposuresMatchAccessesInOrderPerPair) {
    // One target opens three exposures toward the same origin; the origin's
    // three access epochs must match them 1:1 in order.
    std::vector<std::int32_t> landed;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        const Rank peer[] = {1 - p.rank()};
        if (p.rank() == 0) {
            for (std::int32_t i = 1; i <= 3; ++i) {
                win.start(peer);
                win.put(std::span<const std::int32_t>(&i, 1), 1,
                        static_cast<std::size_t>(i - 1));
                win.complete();
            }
        } else {
            for (int i = 0; i < 3; ++i) {
                win.post(peer);
                win.wait_exposure();
                landed.push_back(
                    win.read<std::int32_t>(static_cast<std::size_t>(i)));
            }
        }
    });
    EXPECT_EQ(landed, (std::vector<std::int32_t>{1, 2, 3}));
}

TEST(GatsMatching, OutOfOrderDonesMatchTheirExposureById) {
    // With A_A_A_R at the origin and E_A_E_R at the target, both access
    // epochs and both exposures are active at once. The first access
    // epoch's accumulate goes through the rendezvous (RTS, CTS, data), the
    // second's put makes one trip, so the second done reaches the target
    // first. It names the second exposure, which completes first; the
    // first exposure completes only once its accumulate has landed.
    constexpr std::size_t kWords = 2048;  // 16 KiB: above the 8 KiB rendezvous
    WinInfo info;
    info.access_after_access = true;
    info.exposure_after_exposure = true;
    Job job(internode(2));
    std::vector<std::uint64_t> completed;  // the target's exposures, by seq
    std::vector<bool> landed;  // each one's data, at its completion
    job.rma().set_epoch_observer([&](const rma::Rma::EpochEvent& ev) {
        if (ev.rank != 1 || ev.what != rma::Rma::EpochEvent::What::Complete) {
            return;
        }
        const auto* base =
            reinterpret_cast<const std::int64_t*>(job.rma().win_base(1, 0));
        completed.push_back(ev.seq);
        landed.push_back(ev.seq == 1 ? base[kWords - 1] == 1
                                     : base[kWords] == 2);
    });
    job.run([&](Proc& p) {
        Window win = p.create_window((kWords + 1) * sizeof(std::int64_t), info);
        const Rank peer[] = {1 - p.rank()};
        std::vector<Request> closes;
        if (p.rank() == 0) {
            const std::vector<std::int64_t> ones(kWords, 1);
            const std::int64_t two = 2;
            win.start(peer);
            win.accumulate(std::span<const std::int64_t>(ones), ReduceOp::Sum,
                           1, 0);
            closes.push_back(win.icomplete());
            win.start(peer);
            win.put(std::span<const std::int64_t>(&two, 1), 1, kWords);
            closes.push_back(win.icomplete());
            p.wait_all(closes);
        } else {
            for (int i = 0; i < 2; ++i) {
                win.post(peer);
                closes.push_back(win.iwait_exposure());
            }
            p.wait_all(closes);
        }
    });
    EXPECT_EQ(completed, (std::vector<std::uint64_t>{2, 1}));
    EXPECT_EQ(landed, (std::vector<bool>{true, true}));
}

TEST(GatsMatching, GrantedAccessNotificationPersists) {
    // Paper §VII-B: "when a target grants access to an origin that is
    // several epochs late, the granted access notification must persist for
    // the origin to see it when it catches up."
    std::int32_t sum = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        const Rank peer[] = {1 - p.rank()};
        if (p.rank() == 1) {
            // The target opens (and nonblocking-closes) three exposures far
            // ahead of the origin.
            std::vector<Request> rs;
            for (int i = 0; i < 3; ++i) {
                win.ipost(peer);
                rs.push_back(win.iwait_exposure());
            }
            p.wait_all(rs);
            sum = win.read<std::int32_t>(0) + win.read<std::int32_t>(1) +
                  win.read<std::int32_t>(2);
        } else {
            p.compute(sim::microseconds(500));  // the origin is very late
            for (std::int32_t i = 1; i <= 3; ++i) {
                win.start(peer);
                win.put(std::span<const std::int32_t>(&i, 1), 1,
                        static_cast<std::size_t>(i - 1));
                win.complete();
            }
        }
    });
    EXPECT_EQ(sum, 6);
}

TEST(GatsMatching, PaperWorkedExampleSectionSevenB) {
    // The paper's §VII-B example: origin P0 opens six access epochs toward
    // target groups T0..T5 in order. P1 belongs to T0,T1,T2,T3,T5; P2
    // belongs to T4 and T5. P0's 6th access epoch is its 5th toward P1 and
    // its 2nd toward P2. P2 opens its exposures far ahead of P0.
    //   ranks: P0=0, P1=1, P2=2.
    const std::vector<std::vector<Rank>> groups = {
        {1}, {1}, {1}, {1}, {2}, {1, 2},
    };
    std::vector<std::int32_t> p1_slots;
    std::vector<std::int32_t> p2_slots;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            p.compute(sim::microseconds(300));  // P2's posts run far ahead
            std::int32_t tag = 1;
            for (const auto& g : groups) {
                win.start(g);
                for (Rank t : g) {
                    win.put(std::span<const std::int32_t>(&tag, 1), t,
                            static_cast<std::size_t>(tag - 1));
                }
                win.complete();
                ++tag;
            }
        } else if (p.rank() == 1) {
            const Rank g[] = {0};
            for (int i = 0; i < 5; ++i) {  // 5 exposures toward P0
                win.post(g);
                win.wait_exposure();
            }
            for (std::size_t s = 0; s < 6; ++s) {
                p1_slots.push_back(win.read<std::int32_t>(s));
            }
        } else {
            const Rank g[] = {0};
            std::vector<Request> rs;
            for (int i = 0; i < 2; ++i) {  // 2 exposures, opened way ahead
                win.ipost(g);
                rs.push_back(win.iwait_exposure());
            }
            p.wait_all(rs);
            for (std::size_t s = 0; s < 6; ++s) {
                p2_slots.push_back(win.read<std::int32_t>(s));
            }
        }
    });
    // P1 received epochs 1,2,3,4,6 (writing slots 0,1,2,3,5).
    EXPECT_EQ(p1_slots, (std::vector<std::int32_t>{1, 2, 3, 4, 0, 6}));
    // P2 received epochs 5 and 6 (slots 4 and 5).
    EXPECT_EQ(p2_slots, (std::vector<std::int32_t>{0, 0, 0, 0, 5, 6}));
}

TEST(GatsMatching, MultiTargetGroupDeliversToAll) {
    const int n = 6;
    std::vector<std::int32_t> got(static_cast<std::size_t>(n), 0);
    run(internode(n), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            std::vector<Rank> g;
            for (Rank t = 1; t < n; ++t) g.push_back(t);
            win.start(g);
            for (Rank t = 1; t < n; ++t) {
                const std::int32_t v = 50 + t;
                win.put(std::span<const std::int32_t>(&v, 1), t, 0);
            }
            win.complete();
        } else {
            const Rank g[] = {0};
            win.post(g);
            win.wait_exposure();
            got[static_cast<std::size_t>(p.rank())] = win.read<std::int32_t>(0);
        }
    });
    for (Rank t = 1; t < n; ++t) {
        EXPECT_EQ(got[static_cast<std::size_t>(t)], 50 + t);
    }
}

TEST(GatsMatching, ExposureToMultipleOriginsWaitsForAllDones) {
    // A single exposure epoch with two origins completes only after both
    // origins complete their access epochs.
    double wait_us = 0;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        if (p.rank() == 0) {
            const Rank g[] = {1, 2};
            const auto t0 = p.now();
            win.post(g);
            win.wait_exposure();
            wait_us = sim::to_usec(p.now() - t0);
            EXPECT_EQ(win.read<std::int32_t>(0), 1);
            EXPECT_EQ(win.read<std::int32_t>(1), 2);
        } else {
            if (p.rank() == 2) p.compute(sim::microseconds(400));  // late
            const Rank g[] = {0};
            win.start(g);
            const std::int32_t v = p.rank();
            win.put(std::span<const std::int32_t>(&v, 1), 0,
                    static_cast<std::size_t>(p.rank() - 1));
            win.complete();
        }
    });
    EXPECT_GT(wait_us, 395.0);  // gated by the late origin
}

TEST(GatsMatching, EmptyAccessEpochStillWaitsForThePost) {
    // Late Post applies even with zero RMA calls: MPI_WIN_COMPLETE matches
    // the exposure epoch.
    double complete_us = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        const Rank peer[] = {1 - p.rank()};
        if (p.rank() == 0) {
            const auto t0 = p.now();
            win.start(peer);
            win.complete();  // no RMA calls at all
            complete_us = sim::to_usec(p.now() - t0);
        } else {
            p.compute(sim::microseconds(300));
            win.post(peer);
            win.wait_exposure();
        }
    });
    EXPECT_GT(complete_us, 295.0);
}

TEST(GatsMatching, SelfInGroupWorks) {
    std::int32_t self_val = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            const Rank g[] = {0};  // access epoch to self
            win.post(g);           // and the matching self exposure
            win.start(g);
            const std::int32_t v = 9;
            win.put(std::span<const std::int32_t>(&v, 1), 0, 0);
            win.complete();
            win.wait_exposure();
            self_val = win.read<std::int32_t>(0);
        }
        p.barrier();
    });
    EXPECT_EQ(self_val, 9);
}

TEST(GatsMatching, InterleavedPairsDoNotCrossMatch) {
    // Two origins, one target with per-origin exposure sequences: dones from
    // one origin must never satisfy the other origin's pair counters.
    std::vector<std::int32_t> vals;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            for (int round = 0; round < 2; ++round) {
                const Rank g1[] = {1};
                const Rank g2[] = {2};
                win.post(g1);
                win.wait_exposure();
                win.post(g2);
                win.wait_exposure();
            }
            for (std::size_t s = 0; s < 4; ++s) {
                vals.push_back(win.read<std::int32_t>(s));
            }
        } else {
            for (int round = 0; round < 2; ++round) {
                const Rank g[] = {0};
                win.start(g);
                const std::int32_t v =
                    100 * p.rank() + round;
                win.put(std::span<const std::int32_t>(&v, 1), 0,
                        static_cast<std::size_t>((p.rank() - 1) + 2 * round));
                win.complete();
            }
        }
    });
    EXPECT_EQ(vals, (std::vector<std::int32_t>{100, 200, 101, 201}));
}
