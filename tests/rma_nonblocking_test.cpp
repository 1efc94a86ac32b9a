// Tests for the nonblocking-synchronization semantics of paper Section VI-A:
// rule 1 (any mix of blocking and nonblocking routines), rule 2 (buffers
// unsafe until completion is detected), the dummy completed requests of
// epoch-opening routines (§VII-C), deferred-epoch recording/replay, and
// MPI_WIN_TEST-style exposure testing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

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

TEST(Nonblocking, OpeningRequestsCompleteAtCreation) {
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(256);
        const Rank peer[] = {1 - p.rank()};
        Request r1 = win.ipost(peer);
        EXPECT_TRUE(r1.test());
        Request r2 = win.istart(peer);
        EXPECT_TRUE(r2.test());
        // Drain the epochs properly.
        if (p.rank() == 0) {
            const std::int32_t v = 1;
            win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
        }
        Request c = win.icomplete();
        Request w = win.iwait_exposure();
        p.wait(c);
        p.wait(w);
    });
}

TEST(Nonblocking, IlockAndIlockAllRequestsCompleteAtCreation) {
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        Request r = win.ilock(LockType::Shared, 1 - p.rank());
        EXPECT_TRUE(r.test());
        Request u = win.iunlock(1 - p.rank());
        p.wait(u);
        Request ra = win.ilock_all();
        EXPECT_TRUE(ra.test());
        Request ua = win.iunlock_all();
        p.wait(ua);
        p.barrier();
    });
}

// Rule 1: any combination of blocking and nonblocking synchronization
// routines can make up an epoch.
class MixCombos : public ::testing::TestWithParam<std::tuple<bool, bool>> {};
INSTANTIATE_TEST_SUITE_P(OpenClose, MixCombos,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST_P(MixCombos, BlockingAndNonblockingRoutinesMix) {
    const bool nb_open = std::get<0>(GetParam());
    const bool nb_close = std::get<1>(GetParam());
    std::int32_t seen = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        const Rank peer[] = {1 - p.rank()};
        if (p.rank() == 0) {
            if (nb_open) {
                Request r = win.istart(peer);
                p.wait(r);
            } else {
                win.start(peer);
            }
            const std::int32_t v = 17;
            win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
            if (nb_close) {
                Request r = win.icomplete();
                p.wait(r);
            } else {
                win.complete();
            }
        } else {
            if (nb_open) {
                Request r = win.ipost(peer);
                p.wait(r);
            } else {
                win.post(peer);
            }
            if (nb_close) {
                Request r = win.iwait_exposure();
                p.wait(r);
            } else {
                win.wait_exposure();
            }
            seen = win.read<std::int32_t>(0);
        }
    });
    EXPECT_EQ(seen, 17);
}

// Rule 2: buffers touched by a nonblocking-closed epoch stay unsafe until
// completion is detected; after wait they are safe.
TEST(Nonblocking, GetBufferValidOnlyAfterCompletion) {
    bool incomplete_before = false;
    std::int64_t after = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 1) win.write<std::int64_t>(0, 777);
        p.barrier();
        if (p.rank() == 0) {
            std::int64_t v = 0;
            win.lock(LockType::Shared, 1);
            win.get(std::span<std::int64_t>(&v, 1), 1, 0);
            Request r = win.iunlock(1);
            incomplete_before = !r.test();  // still in flight
            p.wait(r);
            after = v;
        }
        p.barrier();
    });
    EXPECT_TRUE(incomplete_before);
    EXPECT_EQ(after, 777);
}

TEST(Nonblocking, TestExposureFalseUntilDonesArrive) {
    int false_polls = 0;
    bool eventually_true = false;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(1 << 20);
        std::vector<std::byte> buf(1 << 20, std::byte{5});
        const Rank peer[] = {1 - p.rank()};
        p.barrier();
        if (p.rank() == 0) {
            win.start(peer);
            win.put(buf.data(), buf.size(), 1, 0);
            win.complete();
        } else {
            win.post(peer);
            // MPI_WIN_TEST-style polling: false while the transfer runs.
            while (!win.test_exposure()) {
                ++false_polls;
                p.compute(sim::microseconds(50));
            }
            eventually_true = true;
        }
    });
    EXPECT_GT(false_polls, 2);
    EXPECT_TRUE(eventually_true);
}

TEST(Nonblocking, DeferredEpochRecordsAndReplaysOps) {
    // Two back-to-back GATS epochs without flags: the second epoch's put is
    // recorded while deferred and replayed on activation.
    std::int32_t seen0 = 0;
    std::int32_t seen1 = 0;
    run(internode(3), [&](Proc& p) {
        Window win = p.create_window(64);
        const Rank origin = 0;
        if (p.rank() == origin) {
            const Rank g1[] = {1};
            const Rank g2[] = {2};
            win.istart(g1);
            const std::int32_t v1 = 100;
            win.put(std::span<const std::int32_t>(&v1, 1), 1, 0);
            Request r1 = win.icomplete();
            // Epoch 2 opens while epoch 1 is closed-but-incomplete: it is
            // deferred; the put below is recorded, not issued.
            win.istart(g2);
            const std::int32_t v2 = 200;
            win.put(std::span<const std::int32_t>(&v2, 1), 2, 0);
            Request r2 = win.icomplete();
            EXPECT_GE(p.rma_stats().epochs_deferred_at_open, 1u);
            p.wait(r1);
            p.wait(r2);
        } else {
            const Rank g[] = {origin};
            win.post(g);
            win.wait_exposure();
            if (p.rank() == 1) seen0 = win.read<std::int32_t>(0);
            if (p.rank() == 2) seen1 = win.read<std::int32_t>(0);
        }
    });
    EXPECT_EQ(seen0, 100);
    EXPECT_EQ(seen1, 200);
}

TEST(Nonblocking, EpochClosedWhileDeferredFinishesInsideTheEngine) {
    // Chain of nonblocking lock epochs: all but the first are closed while
    // still deferred and are finished entirely by the progress engine.
    const int kChain = 10;
    std::int32_t final_value = -1;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            std::vector<Request> rs;
            for (int i = 0; i < kChain; ++i) {
                win.ilock(LockType::Exclusive, 1);
                const std::int32_t v = i;
                win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
                rs.push_back(win.iunlock(1));
            }
            p.wait_all(rs);
            char tok = 1;
            p.send(&tok, 1, 1, 2);
        } else {
            char tok = 0;
            p.recv(&tok, 1, 0, 2);
            final_value = win.read<std::int32_t>(0);
        }
    });
    EXPECT_EQ(final_value, kChain - 1);
}

TEST(Nonblocking, ManyEpochsPendSimultaneouslyInsideTheEngine) {
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            std::vector<Request> rs;
            for (int i = 0; i < 8; ++i) {
                win.ilock(LockType::Shared, 1);
                const std::int32_t v = i;
                win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
                rs.push_back(win.iunlock(1));
            }
            // Without reorder flags the engine serializes them: pending
            // epochs accumulate in the deferred queue.
            EXPECT_GE(p.rma_stats().max_deferred_epochs, 6u);
            p.wait_all(rs);
        }
        p.barrier();
    });
}

TEST(Nonblocking, WaitAllCompletesMixedRequests) {
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(4096);
        if (p.rank() == 0) {
            std::vector<std::byte> buf(2048, std::byte{1});
            std::vector<Request> rs;
            win.lock(LockType::Shared, 1);
            rs.push_back(win.rput(buf.data(), buf.size(), 1, 0));
            rs.push_back(win.iflush(1));
            rs.push_back(win.iunlock(1));
            p.wait_all(rs);
            for (auto& r : rs) EXPECT_TRUE(r.test());
        }
        p.barrier();
    });
}

TEST(Nonblocking, RequestAccumulatesCompleteInLockEpoch) {
    std::int64_t before = 0;
    std::int64_t after[2] = {0, 0};
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(2 * sizeof(std::int64_t));
        if (p.rank() == 1) {
            win.write<std::int64_t>(0, 10);
            win.write<std::int64_t>(1, 20);
        }
        p.barrier();
        if (p.rank() == 0) {
            const std::int64_t add = 5;
            const std::int64_t mul = 7;
            std::int64_t old = -1;
            win.lock(LockType::Exclusive, 1);
            Request a = win.raccumulate(std::span<const std::int64_t>(&add, 1),
                                        ReduceOp::Sum, 1, 0);
            Request g = win.rget_accumulate(
                std::span<const std::int64_t>(&mul, 1),
                std::span<std::int64_t>(&old, 1), ReduceOp::Prod, 1, 1);
            p.wait(a);
            p.wait(g);
            EXPECT_TRUE(a.test());
            EXPECT_TRUE(g.test());
            EXPECT_EQ(a.status(), NBE_SUCCESS);
            EXPECT_EQ(g.status(), NBE_SUCCESS);
            before = old;
            win.unlock(1);
        }
        p.barrier();
        if (p.rank() == 1) {
            after[0] = win.read<std::int64_t>(0);
            after[1] = win.read<std::int64_t>(1);
        }
    });
    EXPECT_EQ(before, 20);  // rget_accumulate returns the pre-op value
    EXPECT_EQ(after[0], 15);
    EXPECT_EQ(after[1], 140);
}

TEST(Nonblocking, RequestAccumulatesAreMisuseInFenceEpoch) {
    int rejected = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(sizeof(std::int64_t));
        win.fence();
        const std::int64_t v = 1;
        std::int64_t old = 0;
        const Rank peer = 1 - p.rank();
        auto expect_misuse = [&](auto&& call) {
            try {
                (void)call();
                ADD_FAILURE() << "request-based op accepted in a fence epoch";
            } catch (const std::logic_error& e) {
                EXPECT_NE(std::string_view(e.what()).find(
                              "request-based op in active-target epoch"),
                          std::string_view::npos)
                    << e.what();
                ++rejected;
            }
        };
        expect_misuse([&] {
            return win.raccumulate(std::span<const std::int64_t>(&v, 1),
                                   ReduceOp::Sum, peer, 0);
        });
        expect_misuse([&] {
            return win.rget_accumulate(std::span<const std::int64_t>(&v, 1),
                                       std::span<std::int64_t>(&old, 1),
                                       ReduceOp::Sum, peer, 0);
        });
        win.fence();
    });
    EXPECT_EQ(rejected, 4);  // two calls on each of two ranks
}

TEST(Nonblocking, DoubleCloseThrows) {
    EXPECT_THROW(run(internode(2),
                     [&](Proc& p) {
                         Window win = p.create_window(64);
                         if (p.rank() == 0) {
                             win.ilock(LockType::Shared, 1);
                             Request a = win.iunlock(1);
                             Request b = win.iunlock(1);  // no open epoch
                         }
                         p.barrier();
                     }),
                 std::runtime_error);
}

TEST(Nonblocking, NullRequestOperationsThrow) {
    Request r;
    EXPECT_FALSE(r.valid());
    EXPECT_THROW((void)r.test(), std::logic_error);
}

TEST(Nonblocking, FenceAssertsAreHonoured) {
    // NOPRECEDE on a fence that has RMA calls in the open epoch is an error.
    EXPECT_THROW(run(internode(2),
                     [&](Proc& p) {
                         Window win = p.create_window(64);
                         win.fence();
                         if (p.rank() == 0) {
                             const std::int32_t v = 1;
                             win.put(std::span<const std::int32_t>(&v, 1), 1,
                                     0);
                         }
                         win.fence(rma::kNoPrecede);
                     }),
                 std::runtime_error);
}

TEST(Nonblocking, EmptyFenceWithNoPrecedeIsCheap) {
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        win.fence();  // opens an (empty) epoch
        const auto t0 = p.now();
        win.fence(rma::kNoPrecede | rma::kNoSucceed);  // vacuous close
        // No barrier exchange happened: sub-microsecond-ish cost.
        EXPECT_LT(sim::to_usec(p.now() - t0), 5.0);
        p.barrier();
    });
}

TEST(Nonblocking, StatsCountEpochLifecycles) {
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        for (int i = 0; i < 3; ++i) {
            win.lock(LockType::Shared, 1 - p.rank());
            win.unlock(1 - p.rank());
        }
        const auto& st = p.rma_stats();
        EXPECT_GE(st.epochs_opened, 3u);
        EXPECT_GE(st.epochs_completed, 3u);
        EXPECT_EQ(st.epochs_opened, st.epochs_activated);
        p.barrier();
    });
}

// ---------------------------------------- fence asserts, vacuous lifecycle

// A NOPRECEDE fence skips the barrier exchange, but the closed epoch must
// still run the full local lifecycle: observers see Close and Complete,
// and the trace marks the close instant as vacuous. (Regression: the
// vacuous path used to flip the phase silently, so trace consumers and
// property tests lost these transitions.)
TEST(FenceAsserts, VacuousCloseFiresObserverAndTrace) {
    JobConfig cfg = internode(2);
    cfg.obs.trace = true;
    std::vector<rma::Rma::EpochEvent> events;
    Job job(cfg);
    job.rma().set_epoch_observer([&](const rma::Rma::EpochEvent& ev) {
        if (ev.rank == 0 && ev.kind == EpochKind::Fence) {
            events.push_back(ev);
        }
    });
    job.run([](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        p.compute(sim::microseconds(50));  // let the fence epoch activate
        win.fence(rma::kNoPrecede | rma::kNoSucceed);
        p.barrier();
    });
    bool saw_close = false, saw_complete = false;
    for (const auto& ev : events) {
        if (ev.what == rma::Rma::EpochEvent::What::Close) saw_close = true;
        if (ev.what == rma::Rma::EpochEvent::What::Complete) {
            saw_complete = true;
        }
    }
    EXPECT_TRUE(saw_close);
    EXPECT_TRUE(saw_complete);
    bool saw_vacuous_trace = false;
    const auto& tracer = job.world().obs().tracer();
    tracer.for_each_event([&](const obs::TraceEvent& ev) {
        const auto& s = tracer.schema(ev);
        if (ev.rank != 0 || std::string_view(s.name) != "fence.close") {
            return;
        }
        for (std::size_t i = 0; i < s.nargs; ++i) {
            if (std::string_view(s.key[i]) == "vacuous" && ev.value[i] == 1) {
                saw_vacuous_trace = true;
            }
        }
    });
    EXPECT_TRUE(saw_vacuous_trace);
}

// Every opened epoch is retired exactly once, the vacuous NOPRECEDE close
// included: a fence loop that ends in fence(NOPRECEDE | NOSUCCEED) opens
// 4 epochs and completes all 4 on every rank, in every mode.
TEST(FenceAsserts, VacuousCloseCountsAsCompleted) {
    for (Mode mode :
         {Mode::Mvapich, Mode::NewBlocking, Mode::NewNonblocking}) {
        SCOPED_TRACE(rt::to_string(mode));
        JobConfig cfg = internode(4);
        cfg.mode = mode;
        Job job(cfg);
        job.run([](Proc& p) {
            Window win = p.create_window(64);
            const std::int32_t v = p.rank();
            win.fence();
            for (int i = 0; i < 3; ++i) {
                win.put(std::span<const std::int32_t>(&v, 1),
                        (p.rank() + 1) % p.size(), 0);
                win.fence();
            }
            win.fence(rma::kNoPrecede | rma::kNoSucceed);
        });
        for (Rank r = 0; r < 4; ++r) {
            const rma::RmaStats& st = job.rma().stats(r);
            EXPECT_EQ(st.epochs_opened, 4u) << "rank " << r;
            EXPECT_EQ(st.epochs_opened,
                      st.epochs_completed + st.epochs_aborted)
                << "rank " << r;
        }
    }
}

// Same lifecycle when the epoch never activated. Rank 0 nonblocking-closes
// a fence epoch with data while rank 1 is slow to fence: the successor
// epoch the ifence opens stays deferred behind it (fence adjacency never
// reorders), and the NOPRECEDE fence retires it straight from the deferred
// queue. The deferred branch must fire the same Close/Complete pair (and
// rescan activation) instead of silently dropping the epoch.
TEST(FenceAsserts, VacuousCloseOfDeferredEpochFiresLifecycle) {
    JobConfig cfg = internode(2);
    std::vector<rma::Rma::EpochEvent> events;
    Job job(cfg);
    job.rma().set_epoch_observer([&](const rma::Rma::EpochEvent& ev) {
        if (ev.rank == 0 && ev.kind == EpochKind::Fence) {
            events.push_back(ev);
        }
    });
    job.run([](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            win.fence();
            const std::int32_t v = 9;
            win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
            Request rf = win.ifence();  // closes the data epoch, opens the
                                        // successor (deferred behind it)
            win.fence(rma::kNoPrecede | rma::kNoSucceed);  // vacuous close
            p.wait(rf);
        } else {
            p.compute(sim::milliseconds(5));
            win.fence();
            win.fence();
        }
        p.barrier();
    });
    std::uint64_t succ_seq = 0;
    for (const auto& ev : events) succ_seq = std::max(succ_seq, ev.seq);
    bool saw_close = false, saw_complete = false, saw_activate = false;
    for (const auto& ev : events) {
        if (ev.seq != succ_seq) continue;
        if (ev.what == rma::Rma::EpochEvent::What::Close) saw_close = true;
        if (ev.what == rma::Rma::EpochEvent::What::Complete) {
            saw_complete = true;
        }
        if (ev.what == rma::Rma::EpochEvent::What::Activate) {
            saw_activate = true;
        }
    }
    EXPECT_TRUE(saw_close);
    EXPECT_TRUE(saw_complete);
    EXPECT_FALSE(saw_activate);  // proves the deferred branch was taken
}

// NOSUCCEED skips the open: after the closing fence, the window has no
// epoch in any engine queue, and a later plain fence starts a fresh chain.
TEST(FenceAsserts, NoSucceedSkipsTheOpen) {
    std::int32_t seen = 0;
    run(internode(2), [&](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        if (p.rank() == 0) {
            const std::int32_t v = 31;
            win.put(std::span<const std::int32_t>(&v, 1), 1, 0);
        }
        win.fence(rma::kNoSucceed);
        EXPECT_EQ(p.rma().active_count(p.rank(), win.id()), 0u);
        EXPECT_EQ(p.rma().deferred_count(p.rank(), win.id()), 0u);
        win.fence();  // fresh chain still works
        if (p.rank() == 1) {
            const std::int32_t v = 32;
            win.put(std::span<const std::int32_t>(&v, 1), 0, 1);
        }
        win.fence();
        if (p.rank() == 0) seen = win.read<std::int32_t>(1);
        p.barrier();
    });
    EXPECT_EQ(seen, 32);
}
