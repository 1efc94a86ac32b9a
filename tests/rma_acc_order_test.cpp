// MPI orders same-origin same-target accumulate-family ops in program
// order — regardless of how the engine routes each one (eager small
// accumulate, internal-rendezvous large accumulate, MVAPICH close-time
// batching). These are regression tests for the acc_seq issue gate: before
// it, an eagerly-sent accumulate could overtake an earlier one still
// waiting for its rendezvous CTS or for the MVAPICH batch point, which a
// non-commutative operator sequence turns into a wrong final value.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "core/window.hpp"

using namespace nbe;

namespace {

JobConfig cfg(int ranks, Mode mode) {
    JobConfig c;
    c.ranks = ranks;
    c.mode = mode;
    return c;
}

/// > 8 KB of uint64s: routed through internal rendezvous (paper §VIII-A).
constexpr std::size_t kRndvElems = 1025;
/// Exactly the 8 KB threshold: must stay eager.
constexpr std::size_t kEagerElems = 1024;

}  // namespace

class AccOrderAllModes : public ::testing::TestWithParam<Mode> {};

INSTANTIATE_TEST_SUITE_P(Modes, AccOrderAllModes,
                         ::testing::Values(Mode::Mvapich, Mode::NewBlocking,
                                           Mode::NewNonblocking),
                         [](const auto& info) {
                             switch (info.param) {
                                 case Mode::Mvapich: return "Mvapich";
                                 case Mode::NewBlocking: return "NewBlocking";
                                 default: return "NewNonblocking";
                             }
                         });

// A rendezvous-size Replace followed by eager-size Sum and Min to the same
// slot. Program order: 0 -> 7 -> 12 -> min(12,10) = 10. If the small ops
// overtake the rendezvous (its data only ships at the CTS), the Replace
// lands last and the slot ends at 7.
TEST_P(AccOrderAllModes, RendezvousAccumulateIsNotOvertakenByEagerOnes) {
    std::uint64_t slot0 = 0, slot1 = 0;
    Job job(cfg(2, GetParam()));
    job.run([&](Proc& p) {
        Window win = p.create_window(kRndvElems * sizeof(std::uint64_t));
        win.fence();
        if (p.rank() == 1) {
            const std::vector<std::uint64_t> big(kRndvElems, 7);
            const std::uint64_t five = 5, ten = 10;
            win.accumulate(std::span<const std::uint64_t>(big),
                           ReduceOp::Replace, 0, 0);
            win.accumulate(std::span<const std::uint64_t>(&five, 1),
                           ReduceOp::Sum, 0, 0);
            win.accumulate(std::span<const std::uint64_t>(&ten, 1),
                           ReduceOp::Min, 0, 0);
        }
        win.fence();
        if (p.rank() == 0) {
            slot0 = win.read<std::uint64_t>(0);
            slot1 = win.read<std::uint64_t>(1);
        }
    });
    EXPECT_EQ(slot0, 10u);
    EXPECT_EQ(slot1, 7u);
    EXPECT_EQ(job.rma().stats(1).acc_rndv, 1u);
}

// Same sequence under a passive-target exclusive lock epoch.
TEST(AccOrder, LockEpochKeepsProgramOrderAcrossRendezvous) {
    std::uint64_t slot0 = 0;
    Job job(cfg(2, Mode::NewNonblocking));
    job.run([&](Proc& p) {
        Window win = p.create_window(kRndvElems * sizeof(std::uint64_t));
        p.barrier();
        if (p.rank() == 1) {
            const std::vector<std::uint64_t> big(kRndvElems, 7);
            const std::uint64_t five = 5, ten = 10;
            win.lock(LockType::Exclusive, 0);
            win.accumulate(std::span<const std::uint64_t>(big),
                           ReduceOp::Replace, 0, 0);
            win.accumulate(std::span<const std::uint64_t>(&five, 1),
                           ReduceOp::Sum, 0, 0);
            win.accumulate(std::span<const std::uint64_t>(&ten, 1),
                           ReduceOp::Min, 0, 0);
            win.unlock(0);
        }
        p.barrier();
        if (p.rank() == 0) slot0 = win.read<std::uint64_t>(0);
        p.barrier();
    });
    EXPECT_EQ(slot0, 10u);
}

// MVAPICH mixes close-time batching with in-epoch eager sends: an op posted
// before the fence grants arrive is held for the batch point, one posted
// after them goes out eagerly. The eager successor must still wait for the
// batched predecessor. Program order: Replace(5) then Sum(3) -> 8; the
// overtake would leave the Replace last -> 5.
TEST(AccOrder, MvapichEagerDoesNotOvertakeBatchedPredecessor) {
    std::uint64_t slot0 = 0;
    Job job(cfg(2, Mode::Mvapich));
    job.run([&](Proc& p) {
        Window win = p.create_window(256);
        win.fence();
        if (p.rank() == 1) {
            const std::uint64_t five = 5, three = 3;
            // Posted right after the fence: peers' grants are still in
            // flight, so this one is batched to the closing fence.
            win.accumulate(std::span<const std::uint64_t>(&five, 1),
                           ReduceOp::Replace, 0, 0);
            p.compute(sim::milliseconds(2));  // grants land
            // Posted into an active, granted epoch: eligible for the
            // MVAPICH eager path.
            win.accumulate(std::span<const std::uint64_t>(&three, 1),
                           ReduceOp::Sum, 0, 0);
        } else {
            p.compute(sim::milliseconds(2));
        }
        win.fence();
        if (p.rank() == 0) slot0 = win.read<std::uint64_t>(0);
    });
    EXPECT_EQ(slot0, 8u);
}

// A held accumulate holds back only the accumulates behind it: MPI orders
// nothing else. The target posts late, so all three ops wait for its grant;
// the grant issues the rendezvous accumulate (RTS) and the put, while the
// small accumulate waits for the rendezvous data to reach the wire at the
// CTS.
TEST(AccOrder, PutBehindHeldAccumulateLeavesAtTheGrant) {
    JobConfig c = cfg(2, Mode::NewNonblocking);
    c.fabric.ranks_per_node = 1;
    c.obs.trace = true;
    Job job(c);
    job.run([&](Proc& p) {
        Window win = p.create_window(kRndvElems * sizeof(std::uint64_t));
        p.barrier();
        if (p.rank() == 0) {
            const std::vector<std::uint64_t> big(kRndvElems, 7);
            const std::uint64_t one = 1;
            const Rank g[] = {1};
            win.start(g);
            win.accumulate(std::span<const std::uint64_t>(big),
                           ReduceOp::Sum, 1, 0);
            win.accumulate(std::span<const std::uint64_t>(&one, 1),
                           ReduceOp::Sum, 1, 0);
            win.put(std::span<const std::uint64_t>(&one, 1), 1, 1);
            win.complete();
        } else {
            p.compute(sim::microseconds(100));
            const Rank g[] = {0};
            win.post(g);
            win.wait_exposure();
        }
    });
    // Issue time of each of rank 0's ops, keyed by op id (record order).
    std::map<std::int64_t, sim::Time> issued;
    const auto& tracer = job.world().obs().tracer();
    tracer.for_each_event([&](const obs::TraceEvent& ev) {
        const auto& s = tracer.schema(ev);
        if (ev.rank != 0 || std::string_view(s.name) != "op.issue") return;
        for (std::size_t i = 0; i < s.nargs; ++i) {
            if (std::string_view(s.key[i]) == "op") issued[ev.value[i]] = ev.ts;
        }
    });
    ASSERT_EQ(issued.size(), 3u);
    auto it = issued.begin();
    const sim::Time rndv_acc = (it++)->second;
    const sim::Time small_acc = (it++)->second;
    const sim::Time put = it->second;
    EXPECT_EQ(put, rndv_acc);
    EXPECT_LT(put, small_acc);
}

// ------------------------------------------ §VIII-A threshold boundary

// The paper routes accumulates *larger than* 8 KB through rendezvous: an
// exactly-8192-byte accumulate must stay eager in every mode, one element
// more must not.
TEST_P(AccOrderAllModes, ExactlyEightKilobytesStaysEager) {
    std::uint64_t first = 0, last = 0;
    Job job(cfg(2, GetParam()));
    job.run([&](Proc& p) {
        Window win = p.create_window(kEagerElems * sizeof(std::uint64_t));
        win.fence();
        if (p.rank() == 1) {
            const std::vector<std::uint64_t> v(kEagerElems, 3);
            win.accumulate(std::span<const std::uint64_t>(v), ReduceOp::Sum,
                           0, 0);
        }
        win.fence();
        if (p.rank() == 0) {
            first = win.read<std::uint64_t>(0);
            last = win.read<std::uint64_t>(kEagerElems - 1);
        }
    });
    EXPECT_EQ(first, 3u);
    EXPECT_EQ(last, 3u);
    EXPECT_EQ(job.rma().stats(1).acc_rndv, 0u);
}

TEST_P(AccOrderAllModes, OneElementOverTheThresholdUsesRendezvous) {
    std::uint64_t first = 0, last = 0;
    Job job(cfg(2, GetParam()));
    job.run([&](Proc& p) {
        Window win = p.create_window(kRndvElems * sizeof(std::uint64_t));
        win.fence();
        if (p.rank() == 1) {
            const std::vector<std::uint64_t> v(kRndvElems, 4);
            win.accumulate(std::span<const std::uint64_t>(v), ReduceOp::Sum,
                           0, 0);
        }
        win.fence();
        if (p.rank() == 0) {
            first = win.read<std::uint64_t>(0);
            last = win.read<std::uint64_t>(kRndvElems - 1);
        }
    });
    EXPECT_EQ(first, 4u);
    EXPECT_EQ(last, 4u);
    EXPECT_EQ(job.rma().stats(1).acc_rndv, 1u);
}
