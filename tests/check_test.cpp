// The RMA semantics checker (nbe::check): the conflict matrix and phase
// bookkeeping exercised directly on a Checker, then end-to-end through real
// jobs with JobConfig::check set — erroneous workloads are flagged with
// structured records, clean workloads produce zero findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "check/check.hpp"
#include "core/window.hpp"
#include "obs/record.hpp"
#include "sim/engine.hpp"

using namespace nbe;
using check::Checker;
using rma::OpKind;

namespace {

/// Checker + engine pair for direct (no-job) unit tests: 4 ranks, one
/// 256-byte window 0 on every rank.
struct Fixture {
    sim::Engine engine;
    Checker ck{4, engine, nullptr};

    Fixture() {
        for (int r = 0; r < 4; ++r) ck.add_window(r, 0, 256);
    }
};

JobConfig checked_cfg(int ranks, Mode mode = Mode::NewNonblocking) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = mode;
    cfg.check = true;
    return cfg;
}

/// First record whose "error" field equals `what`, or nullptr.
const obs::Record* find_error(const std::vector<obs::Record>& records,
                              const std::string& what) {
    for (const auto& r : records) {
        if (const auto* e = r.find("error"); e != nullptr && *e == what) {
            return &r;
        }
    }
    return nullptr;
}

}  // namespace

// ------------------------------------------------------ conflict matrix

TEST(CheckMatrix, OverlappingPutsInOnePhaseConflict) {
    Fixture f;
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 64, 1, 5);
    f.ck.remote_access(0, 0, 2, OpKind::Put, 32, 64, 2, 5);
    EXPECT_EQ(f.ck.stats().conflicts, 1u);
    EXPECT_EQ(f.ck.status(), NBE_ERR_SEMANTICS);
    ASSERT_EQ(f.ck.records().size(), 1u);
    const obs::Record& rec = f.ck.records()[0];
    EXPECT_EQ(rec.type(), "check.conflict");
    ASSERT_NE(rec.find("a_origin"), nullptr);
    EXPECT_EQ(*rec.find("a_origin"), "1");
    EXPECT_EQ(*rec.find("b_origin"), "2");
    EXPECT_EQ(*rec.find("a_access"), "put");
    EXPECT_EQ(*rec.find("a_range"), "[0,64)");
    EXPECT_EQ(*rec.find("b_range"), "[32,96)");
}

TEST(CheckMatrix, PutVsGetAndAccumulateVsPutConflict) {
    Fixture f;
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 1, 5);
    f.ck.remote_access(0, 0, 2, OpKind::Get, 4, 8, 2, 5);
    f.ck.remote_access(0, 0, 3, OpKind::Accumulate, 0, 8, 3, 5);
    // put|get, put|acc, get|acc: three overlapping non-atomic pairs.
    EXPECT_EQ(f.ck.stats().conflicts, 3u);
}

TEST(CheckMatrix, ReadsAndAccumulatesAreCompatibleClasses) {
    Fixture f;
    f.ck.remote_access(0, 0, 1, OpKind::Get, 0, 32, 1, 5);
    f.ck.remote_access(0, 0, 2, OpKind::Get, 0, 32, 2, 5);
    // The whole accumulate family is mutually atomic, mixed kinds included.
    f.ck.remote_access(0, 0, 1, OpKind::Accumulate, 64, 32, 3, 5);
    f.ck.remote_access(0, 0, 2, OpKind::FetchAndOp, 64, 8, 4, 5);
    f.ck.remote_access(0, 0, 3, OpKind::CompareAndSwap, 80, 8, 5, 5);
    EXPECT_EQ(f.ck.stats().conflicts, 0u);
    EXPECT_EQ(f.ck.status(), NBE_SUCCESS);
}

TEST(CheckMatrix, DisjointRangesAndDistinctPhasesDoNotConflict) {
    Fixture f;
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 64, 1, 5);
    f.ck.remote_access(0, 0, 2, OpKind::Put, 64, 64, 2, 5);   // disjoint
    f.ck.remote_access(0, 0, 2, OpKind::Put, 0, 64, 3, 6);    // other phase
    EXPECT_EQ(f.ck.stats().conflicts, 0u);
    EXPECT_EQ(f.ck.stats().accesses, 3u);
}

TEST(CheckMatrix, LocalStoreIsAWildcardAcrossPhases) {
    Fixture f;
    f.ck.local_access(0, 0, 0, 8, /*store=*/true);
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 1, 6);
    EXPECT_EQ(f.ck.stats().conflicts, 1u);
    // Local load vs remote get: both reads, still fine.
    f.ck.local_access(0, 0, 128, 8, /*store=*/false);
    f.ck.remote_access(0, 0, 1, OpKind::Get, 128, 8, 2, 6);
    EXPECT_EQ(f.ck.stats().conflicts, 1u);
}

TEST(CheckMatrix, SyncCallRetiresLocalIntervals) {
    Fixture f;
    f.ck.local_access(0, 0, 0, 8, /*store=*/true);
    f.ck.sync_call(0, 0);  // the app entered fence/lock/...: separation point
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 1, 5);
    EXPECT_EQ(f.ck.stats().conflicts, 0u);
}

TEST(CheckMatrix, PhaseCompleteRetiresItsIntervals) {
    Fixture f;
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 1, 5);
    f.ck.phase_complete(0, 0, 5);
    f.ck.remote_access(0, 0, 2, OpKind::Put, 0, 8, 2, 5);
    EXPECT_EQ(f.ck.stats().conflicts, 0u);
    EXPECT_EQ(f.ck.stats().phases_closed, 1u);
}

TEST(CheckMatrix, UnlockSeparatesPassiveTargetSessions) {
    Fixture f;
    // phase_key 0 = passive target: attributed to origin 1's lock session.
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 1, 0);
    f.ck.unlock_session(0, 0, 1);
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 2, 0);
    EXPECT_EQ(f.ck.stats().conflicts, 0u);
    // Two origins' open sessions are distinct phases too.
    f.ck.remote_access(0, 0, 2, OpKind::Put, 64, 8, 3, 0);
    f.ck.remote_access(0, 0, 3, OpKind::Put, 64, 8, 4, 0);
    EXPECT_EQ(f.ck.stats().conflicts, 0u);
}

TEST(CheckMatrix, ConflictRecordJoinsOriginOpMetadata) {
    Fixture f;
    f.ck.note_op(1, 0, 7, /*posted_at=*/1234, /*age=*/3);
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 7, 5);
    f.ck.remote_access(0, 0, 2, OpKind::Put, 0, 8, 8, 5);
    ASSERT_EQ(f.ck.records().size(), 1u);
    const obs::Record& rec = f.ck.records()[0];
    ASSERT_NE(rec.find("a_posted_at"), nullptr);
    EXPECT_EQ(*rec.find("a_posted_at"), "1234");
    EXPECT_EQ(*rec.find("a_age"), "3");
    EXPECT_EQ(*rec.find("a_op"), "7");
}

TEST(CheckMatrix, ConflictRecordKeepsBothOpsMetadataOnceApplied) {
    Fixture f;
    f.ck.note_op(1, 0, 7, /*posted_at=*/1234, /*age=*/3);
    f.ck.note_op(2, 0, 9, /*posted_at=*/2000, /*age=*/5);
    EXPECT_EQ(f.ck.ops_in_flight(), 2u);
    f.ck.remote_access(0, 0, 1, OpKind::Put, 0, 8, 7, 5);
    EXPECT_EQ(f.ck.ops_in_flight(), 1u);
    f.ck.remote_access(0, 0, 2, OpKind::Accumulate, 0, 8, 9, 5);
    EXPECT_EQ(f.ck.ops_in_flight(), 0u);
    ASSERT_EQ(f.ck.records().size(), 1u);
    const obs::Record& rec = f.ck.records()[0];
    ASSERT_NE(rec.find("a_posted_at"), nullptr);
    ASSERT_NE(rec.find("b_posted_at"), nullptr);
    EXPECT_EQ(*rec.find("a_posted_at"), "1234");
    EXPECT_EQ(*rec.find("a_age"), "3");
    EXPECT_EQ(*rec.find("b_posted_at"), "2000");
    EXPECT_EQ(*rec.find("b_age"), "5");
    EXPECT_EQ(*rec.find("b_op"), "9");
}

// --------------------------------------------------- epoch state machine

TEST(CheckEpoch, AccessOutsideWindowBoundsFlagged) {
    Fixture f;
    f.ck.remote_access(0, 0, 1, OpKind::Put, 240, 32, 1, 5);
    EXPECT_EQ(f.ck.stats().epoch_errors, 1u);
    const obs::Record* rec = find_error(f.ck.records(),
                                        "access outside window");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(*rec->find("range"), "[240,272)");
    EXPECT_EQ(*rec->find("bytes"), "256");
}

TEST(CheckEpoch, FenceAssertMismatchFlagged) {
    Fixture f;
    f.ck.fence_asserts(0, 0, 0);
    f.ck.fence_asserts(1, 0, 0);             // ordinal 0: agrees
    f.ck.fence_asserts(0, 0, rma::kNoPrecede);
    f.ck.fence_asserts(1, 0, 0);             // ordinal 1: disagrees
    EXPECT_EQ(f.ck.stats().epoch_errors, 1u);
    const obs::Record* rec = find_error(f.ck.records(),
                                        "fence assert mismatch");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(*rec->find("fence"), "1");
    EXPECT_EQ(*rec->find("rank"), "1");
}

TEST(CheckEpoch, GatsGroupMismatchFlaggedAtFinalize) {
    Fixture f;
    // 0 starts toward {1} twice, 1 posts toward {0} once.
    const net::Rank to0[] = {0};
    const net::Rank to1[] = {1};
    f.ck.epoch_open(0, 0, rma::EpochKind::Access, 1, to1);
    f.ck.epoch_open(1, 0, rma::EpochKind::Exposure, 1, to0);
    f.ck.epoch_open(0, 0, rma::EpochKind::Access, 2, to1);
    f.ck.finalize();
    EXPECT_EQ(f.ck.stats().epoch_errors, 1u);
    const obs::Record* rec = find_error(f.ck.records(),
                                        "gats group mismatch");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(*rec->find("origin"), "0");
    EXPECT_EQ(*rec->find("target"), "1");
    EXPECT_EQ(*rec->find("balance"), "1");
}

TEST(CheckEpoch, BalancedGatsGroupsAreClean) {
    Fixture f;
    const net::Rank to0[] = {0};
    const net::Rank to12[] = {1, 2};
    f.ck.epoch_open(0, 0, rma::EpochKind::Access, 1, to12);
    f.ck.epoch_open(1, 0, rma::EpochKind::Exposure, 1, to0);
    f.ck.epoch_open(2, 0, rma::EpochKind::Exposure, 1, to0);
    f.ck.finalize();
    EXPECT_EQ(f.ck.stats().epoch_errors, 0u);
    EXPECT_EQ(f.ck.status(), NBE_SUCCESS);
}

TEST(CheckEpoch, UsageErrorLeavesStructuredRecord) {
    Fixture f;
    f.ck.usage_error(2, 0, "unlock without lock", "target 1");
    EXPECT_EQ(f.ck.status(), NBE_ERR_SEMANTICS);
    const obs::Record* rec = find_error(f.ck.records(),
                                        "unlock without lock");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(*rec->find("rank"), "2");
    EXPECT_EQ(*rec->find("detail"), "target 1");
}

// ------------------------------------------------------ end-to-end jobs

class CheckJobAllModes : public ::testing::TestWithParam<Mode> {};

INSTANTIATE_TEST_SUITE_P(Modes, CheckJobAllModes,
                         ::testing::Values(Mode::Mvapich, Mode::NewBlocking,
                                           Mode::NewNonblocking),
                         [](const auto& info) {
                             switch (info.param) {
                                 case Mode::Mvapich: return "Mvapich";
                                 case Mode::NewBlocking: return "NewBlocking";
                                 default: return "NewNonblocking";
                             }
                         });

TEST_P(CheckJobAllModes, OverlappingPutsFromTwoOriginsFlagged) {
    Job job(checked_cfg(3, GetParam()));
    job.run([](Proc& p) {
        Window win = p.create_window(256);
        win.fence();
        if (p.rank() != 0) {
            const std::uint64_t v = 0x1111u * p.rank();
            win.put(std::span<const std::uint64_t>(&v, 1), 0, 0);
        }
        win.fence();
    });
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_GE(ck->stats().conflicts, 1u);
    EXPECT_EQ(ck->status(), NBE_ERR_SEMANTICS);
    ASSERT_FALSE(ck->records().empty());
    EXPECT_EQ(ck->records()[0].type(), "check.conflict");
}

TEST_P(CheckJobAllModes, LocalStoreRacingARemotePutFlagged) {
    Job job(checked_cfg(2, GetParam()));
    job.run([](Proc& p) {
        Window win = p.create_window(256);
        win.fence();
        if (p.rank() == 1) {
            const std::uint64_t v = 42;
            win.put(std::span<const std::uint64_t>(&v, 1), 0, 0);
        } else {
            win.write<std::uint64_t>(0, 7);
            // Stay out of the closing fence long enough for rank 1's put
            // to land while the local-store interval is still live.
            p.compute(sim::milliseconds(2));
        }
        win.fence();
    });
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_GE(ck->stats().conflicts, 1u);
}

TEST_P(CheckJobAllModes, CleanWorkloadHasZeroFindings) {
    Job job(checked_cfg(3, GetParam()));
    job.run([](Proc& p) {
        Window win = p.create_window(256);
        std::uint64_t got = 0;
        win.write<std::uint64_t>(16, 9);  // pre-epoch local store
        win.fence();
        // Disjoint put targets + everyone accumulates into one slot.
        const std::uint64_t v = 100 + static_cast<std::uint64_t>(p.rank());
        win.put(std::span<const std::uint64_t>(&v, 1),
                (p.rank() + 1) % p.size(), static_cast<std::size_t>(p.rank()));
        win.accumulate(std::span<const std::uint64_t>(&v, 1), ReduceOp::Sum,
                       0, 8);
        win.fence();
        win.get(std::span<std::uint64_t>(&got, 1), 0, 8);
        win.fence();
        (void)win.read<std::uint64_t>(8);
        win.fence(rma::kNoPrecede | rma::kNoSucceed);
    });
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_GT(ck->stats().accesses, 0u);
    EXPECT_EQ(ck->stats().conflicts, 0u);
    EXPECT_EQ(ck->stats().epoch_errors, 0u);
    EXPECT_EQ(ck->status(), NBE_SUCCESS);
}

// The op registry holds only ops that are not applied yet: over a long
// checked lock loop it stays at the ops in flight, and is empty at the end.
TEST(CheckJob, OpRegistryHoldsOnlyOpsInFlight) {
    constexpr int kIters = 1000;
    Job job(checked_cfg(3));
    std::size_t most = 0;
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) return;
        const auto slot = static_cast<std::size_t>(p.rank());
        for (int i = 0; i < kIters; ++i) {
            const std::uint64_t v = static_cast<std::uint64_t>(i);
            win.lock(LockType::Exclusive, 0);
            win.put(std::span<const std::uint64_t>(&v, 1), 0, slot);
            win.accumulate(std::span<const std::uint64_t>(&v, 1),
                           ReduceOp::Sum, 0, 0);
            win.unlock(0);
            // This rank's ops are applied; the other origin has at most
            // its two in flight.
            most = std::max(most, job.world().checker()->ops_in_flight());
        }
    });
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_EQ(ck->stats().conflicts, 0u);
    EXPECT_EQ(ck->stats().accesses, 2u * 2u * kIters);
    EXPECT_LE(most, 2u);
    EXPECT_EQ(ck->ops_in_flight(), 0u);
}

// Remote data is attributed to the target's exposure-side epoch under
// fence and to the origin's lock session under locks, on one window that
// runs lock epochs before its first fence and after its last: only the
// fence phase's two overlapping puts conflict.
TEST(CheckJob, PhaseAttributionOnAWindowMixingFenceAndLocks) {
    Job job(checked_cfg(3));
    job.run([](Proc& p) {
        Window win = p.create_window(64);
        const std::uint64_t v = static_cast<std::uint64_t>(p.rank());
        const auto put_to_zero = [&] {
            win.put(std::span<const std::uint64_t>(&v, 1), 0, 0);
        };
        const auto locked_put = [&] {
            if (p.rank() == 0) return;
            win.lock(LockType::Exclusive, 0);
            put_to_zero();
            win.unlock(0);
        };
        locked_put();
        p.barrier();
        win.fence(rma::kNoPrecede);
        if (p.rank() != 0) put_to_zero();
        win.fence(rma::kNoSucceed);
        locked_put();
        p.barrier();
    });
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_EQ(ck->stats().accesses, 6u);
    EXPECT_EQ(ck->stats().conflicts, 1u);
    EXPECT_EQ(ck->ops_in_flight(), 0u);
}

TEST(CheckJob, UncheckedJobBuildsNoChecker) {
    // The checker is switched at run time only: off, no Checker exists and
    // data moves as usual.
    JobConfig cfg = checked_cfg(2);
    cfg.check = false;
    std::uint64_t seen = 0;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        if (p.rank() == 0) {
            const std::uint64_t v = 4242;
            win.put(std::span<const std::uint64_t>(&v, 1), 1, 0);
        }
        win.fence();
        if (p.rank() == 1) seen = win.read<std::uint64_t>(0);
    });
    EXPECT_EQ(job.world().checker(), nullptr);
    EXPECT_EQ(seen, 4242u);
}

TEST(CheckJob, OpOutsideEpochRecordedBeforeThrow) {
    Job job(checked_cfg(2));
    bool threw = false;
    try {
        job.run([](Proc& p) {
            Window win = p.create_window(64);
            const std::uint64_t v = 1;
            win.put(std::span<const std::uint64_t>(&v, 1), 1 - p.rank(), 0);
        });
    } catch (const std::exception&) {
        threw = true;
    }
    EXPECT_TRUE(threw);  // the engine's exception is not replaced
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_NE(find_error(ck->records(), "op outside epoch"), nullptr);
    EXPECT_EQ(ck->status(), NBE_ERR_SEMANTICS);
}

// The remaining misuse paths leave the same account before the engine
// throws: a flush outside any passive-target epoch, a request-based op in
// an active-target epoch, an exposure test with no exposure open, and a
// nonblocking synchronization in MVAPICH mode.
namespace {

void expect_misuse_recorded(Mode mode, const std::string& what,
                            const std::function<void(Proc&, Window&)>& body) {
    Job job(checked_cfg(2, mode));
    bool threw = false;
    try {
        job.run([&](Proc& p) {
            Window win = p.create_window(64);
            body(p, win);
        });
    } catch (const std::exception&) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_NE(find_error(ck->records(), what), nullptr)
        << obs::render_records(ck->records(), "checker");
    EXPECT_EQ(ck->status(), NBE_ERR_SEMANTICS);
}

}  // namespace

TEST(CheckJob, FlushOutsidePassiveEpochRecordedBeforeThrow) {
    expect_misuse_recorded(Mode::NewNonblocking, "flush without lock",
                           [](Proc& p, Window& win) {
                               win.flush(1 - p.rank());
                           });
}

TEST(CheckJob, RequestOpInActiveEpochRecordedBeforeThrow) {
    expect_misuse_recorded(
        Mode::NewNonblocking, "request-based op in active-target epoch",
        [](Proc& p, Window& win) {
            win.fence();
            const std::uint64_t v = 1;
            win.rput(&v, sizeof v, 1 - p.rank(), 0);
        });
}

TEST(CheckJob, TestExposureWithoutPostRecordedBeforeThrow) {
    expect_misuse_recorded(Mode::NewNonblocking, "test without post",
                           [](Proc&, Window& win) {
                               (void)win.test_exposure();
                           });
}

TEST(CheckJob, MvapichNonblockingSyncRecordedBeforeThrow) {
    expect_misuse_recorded(Mode::Mvapich, "ifence", [](Proc&, Window& win) {
        (void)win.ifence();
    });
}

TEST(CheckJob, FenceAssertDivergenceAcrossRanksFlagged) {
    Job job(checked_cfg(2));
    job.run([](Proc& p) {
        Window win = p.create_window(64);
        // First fence: nothing to close, so NOPRECEDE is functionally inert
        // — but MPI still requires every rank to pass the same asserts.
        win.fence(p.rank() == 0 ? rma::kNoPrecede : 0u);
        win.fence();
    });
    Checker* ck = job.world().checker();
    ASSERT_NE(ck, nullptr);
    EXPECT_NE(find_error(ck->records(), "fence assert mismatch"), nullptr);
}

TEST(CheckJob, CountersReachTheMetricsRegistry) {
    JobConfig cfg = checked_cfg(2);
    cfg.obs.metrics = true;
    Job job(cfg);
    job.run([](Proc& p) {
        Window win = p.create_window(64);
        win.fence();
        if (p.rank() == 0) {
            const std::uint64_t v = 5;
            win.put(std::span<const std::uint64_t>(&v, 1), 1, 0);
        }
        win.fence();
    });
    auto& reg = job.world().obs().metrics();
    reg.collect();
    const auto* accesses = reg.find_counter("check.accesses");
    ASSERT_NE(accesses, nullptr);
    EXPECT_GT(accesses->value(), 0u);
    const auto* conflicts = reg.find_counter("check.conflicts");
    ASSERT_NE(conflicts, nullptr);
    EXPECT_EQ(conflicts->value(), 0u);
}
