// Fault-injection integration tests: deterministic replay under a faulty
// fabric, the Figure 2-6 epoch patterns surviving packet loss through the
// reliable-delivery sublayer, scripted link outages propagating NBE_ERR_*
// through requests, and the deadlock diagnostics dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/window.hpp"

using namespace nbe;

namespace {

/// Full fault soup on every link, severe enough to exercise every protocol
/// path (drops, dups, corruption, jitter) but recoverable by the default
/// retry budget.
JobConfig faulty_config(int ranks, std::uint64_t seed) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;
    cfg.fabric.fault.drop_prob = 0.03;
    cfg.fabric.fault.dup_prob = 0.02;
    cfg.fabric.fault.corrupt_prob = 0.02;
    cfg.fabric.fault.jitter_max = sim::microseconds(3);
    cfg.fabric.fault.seed = seed;
    return cfg;
}

net::FaultConfig drop_faults(double prob, std::uint64_t seed = 0xd201) {
    net::FaultConfig f;
    f.enabled = true;
    f.drop_prob = prob;
    f.seed = seed;
    return f;
}

struct RingResult {
    std::vector<std::vector<std::byte>> windows;  // final contents per rank
    std::vector<std::vector<std::byte>> received; // two-sided payloads
    net::Fabric::Stats stats;
    sim::Time end_time = 0;

    bool operator==(const RingResult& o) const {
        return windows == o.windows && received == o.received &&
               end_time == o.end_time &&
               stats.packets_sent == o.stats.packets_sent &&
               stats.bytes_sent == o.stats.bytes_sent &&
               stats.drops_injected == o.stats.drops_injected &&
               stats.retransmits == o.stats.retransmits &&
               stats.dup_delivered == o.stats.dup_delivered &&
               stats.corrupt_detected == o.stats.corrupt_detected;
    }
};

/// Ring workload mixing one-sided puts (fence-synchronized) with a
/// rendezvous-sized two-sided exchange; returns everything a determinism
/// comparison needs.
RingResult run_ring(const JobConfig& cfg) {
    constexpr std::size_t kWin = 1024;
    constexpr std::size_t kMsg = 64 * 1024;
    RingResult out;
    out.windows.assign(static_cast<std::size_t>(cfg.ranks), {});
    out.received.assign(static_cast<std::size_t>(cfg.ranks), {});
    Job job(cfg);
    job.run([&](Proc& p) {
        const int n = p.size();
        const Rank next = (p.rank() + 1) % n;
        const Rank prev = (p.rank() + n - 1) % n;
        Window win = p.create_window(kWin);
        win.fence();
        std::vector<std::byte> src(kWin, std::byte(0x40 + p.rank()));
        win.put(src.data(), src.size(), next, 0);
        win.fence();

        std::vector<std::byte> msg(kMsg, std::byte(0x10 + p.rank()));
        std::vector<std::byte> got(kMsg);
        Request rr = p.irecv(got.data(), got.size(), prev, 9);
        Request rs = p.isend(msg.data(), msg.size(), next, 9);
        rr.wait(p.sim_process());
        rs.wait(p.sim_process());

        out.windows[static_cast<std::size_t>(p.rank())]
            .assign(win.base(), win.base() + kWin);
        out.received[static_cast<std::size_t>(p.rank())] = std::move(got);
    });
    out.stats = job.world().fabric().stats();
    out.end_time = job.world().engine().now();
    return out;
}

}  // namespace

// ------------------------------------------------------------- determinism

TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
    const JobConfig cfg = faulty_config(4, 0xabcd);
    const RingResult a = run_ring(cfg);
    const RingResult b = run_ring(cfg);
    EXPECT_TRUE(a == b);

    // The fault model actually fired, and the protocol recovered.
    EXPECT_GT(a.stats.drops_injected, 0u);
    EXPECT_GT(a.stats.retransmits, 0u);
    EXPECT_EQ(a.stats.links_failed, 0u);
}

TEST(FaultDeterminism, ApplicationDataSurvivesFaultsByteIdentical) {
    const RingResult r = run_ring(faulty_config(4, 0x5eed));
    for (int rank = 0; rank < 4; ++rank) {
        const Rank prev = (rank + 3) % 4;
        for (std::byte b : r.windows[static_cast<std::size_t>(rank)]) {
            ASSERT_EQ(b, std::byte(0x40 + prev));
        }
        for (std::byte b : r.received[static_cast<std::size_t>(rank)]) {
            ASSERT_EQ(b, std::byte(0x10 + prev));
        }
    }
}

// ------------------------------------- Figure 2-6 patterns under packet loss

TEST(FaultPatterns, LatePostCompletesUnderDrop) {
    for (const double prob : {0.01, 0.05}) {
        const auto f = drop_faults(prob);
        const auto r = apps::late_post(Mode::NewNonblocking, 1 << 20,
                                       apps::kDelay, &f);
        EXPECT_GT(r.access_epoch_us, 0.0);
        EXPECT_GT(r.two_sided_us, 0.0);
        const auto again = apps::late_post(Mode::NewNonblocking, 1 << 20,
                                           apps::kDelay, &f);
        EXPECT_EQ(r.cumulative_us, again.cumulative_us);
    }
}

TEST(FaultPatterns, LateCompleteCompletesUnderDrop) {
    const auto f = drop_faults(0.03);
    const auto r =
        apps::late_complete(Mode::NewNonblocking, 1 << 20, apps::kDelay, &f);
    EXPECT_GT(r.target_epoch_us, 0.0);
    EXPECT_GT(r.origin_epoch_us, 0.0);
}

TEST(FaultPatterns, EarlyFenceCompletesUnderDrop) {
    const auto f = drop_faults(0.03);
    EXPECT_GT(apps::early_fence_cumulative_us(Mode::NewNonblocking, 1 << 20,
                                              apps::kDelay, &f),
              0.0);
}

TEST(FaultPatterns, WaitAtFenceCompletesUnderDrop) {
    const auto f = drop_faults(0.03);
    EXPECT_GT(apps::wait_at_fence_target_us(Mode::NewNonblocking, 1 << 20,
                                            apps::kDelay, &f),
              0.0);
}

TEST(FaultPatterns, LateUnlockCompletesUnderDrop) {
    const auto f = drop_faults(0.03);
    const auto r =
        apps::late_unlock(Mode::NewNonblocking, 1 << 20, apps::kDelay, &f);
    EXPECT_GT(r.first_lock_us, 0.0);
    EXPECT_GT(r.second_lock_us, 0.0);
}

TEST(FaultPatterns, BlockingModeAlsoSurvivesDrop) {
    const auto f = drop_faults(0.02);
    const auto r =
        apps::late_post(Mode::NewBlocking, 1 << 20, apps::kDelay, &f);
    EXPECT_GT(r.cumulative_us, 0.0);
}

// ------------------------------------------------------------ link failures

TEST(LinkDown, ScriptedOutageFailsAffectedRequestsOnly) {
    JobConfig cfg;
    cfg.ranks = 3;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;
    // Kill 0->1 after setup and keep it dead past retry exhaustion.
    cfg.fabric.fault.down.push_back(
        {0, 1, sim::milliseconds(5), sim::seconds(100)});

    Status send_status = NBE_SUCCESS;
    Status recv_status = NBE_SUCCESS;
    Status side_status = NBE_ERR_INTERNAL;
    run(cfg, [&](Proc& p) {
        std::vector<std::byte> buf(64 * 1024, std::byte{7});
        p.barrier();                       // completes well before the outage
        p.compute(sim::milliseconds(10));  // move into the outage window
        if (p.rank() == 0) {
            Request r = p.isend(buf.data(), buf.size(), 1, 7);
            r.wait(p.sim_process());
            send_status = r.status();
            p.send(buf.data(), buf.size(), 2, 8);  // healthy link still works
        } else if (p.rank() == 1) {
            Request r = p.irecv(buf.data(), buf.size(), 0, 7);
            r.wait(p.sim_process());
            recv_status = r.status();
        } else {
            Request r = p.irecv(buf.data(), buf.size(), 0, 8);
            r.wait(p.sim_process());
            side_status = r.status();
        }
    });
    EXPECT_EQ(send_status, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(recv_status, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(side_status, NBE_SUCCESS);
}

TEST(LinkDown, EpochTowardDeadPeerFailsInsteadOfDeadlocking) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;

    Status close_status = NBE_SUCCESS;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(4096);
        p.barrier();
        if (p.rank() == 0) {
            job.world().fabric().fail_link_now(0, 1);
            const Rank g[] = {1};
            Request open = win.istart(g);
            std::byte b{1};
            win.put(&b, 1, 1, 0);
            Request close = win.icomplete();
            p.wait(close);
            close_status = close.status();
        }
    });
    EXPECT_EQ(close_status, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(job.rma().stats(0).epochs_aborted, 1u);
}

// A link failure retires every epoch toward the dead peer exactly once, in
// ascending seq order: here the active lock epoch and the two deferred
// behind it (default flags hold a successor until its closed predecessor
// completes). Nothing is left listed open afterwards.
TEST(LinkDown, AbortWalkRetiresActiveAndDeferredEpochsOnce) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;

    std::size_t active = 0;
    std::size_t deferred = 0;
    std::vector<Status> statuses;
    std::vector<std::uint64_t> retired;  // seqs, in Complete-event order
    Job job(cfg);
    job.rma().set_epoch_observer([&](const rma::Rma::EpochEvent& ev) {
        if (ev.rank == 0 && ev.what == rma::Rma::EpochEvent::What::Complete) {
            retired.push_back(ev.seq);
        }
    });
    job.run([&](Proc& p) {
        Window win = p.create_window(4096);
        p.barrier();
        if (p.rank() != 0) return;
        const std::byte b{1};
        std::vector<Request> closes;
        for (int i = 0; i < 3; ++i) {
            win.lock(LockType::Exclusive, 1);
            win.put(&b, 1, 1, 0);
            closes.push_back(win.iunlock(1));
        }
        active = job.rma().active_count(0, win.id());
        deferred = job.rma().deferred_count(0, win.id());
        job.world().fabric().fail_link_now(0, 1);
        for (Request& r : closes) {
            p.wait(r);
            statuses.push_back(r.status());
        }
    });
    EXPECT_EQ(active, 1u);
    EXPECT_EQ(deferred, 2u);
    EXPECT_EQ(statuses, std::vector<Status>(3, NBE_ERR_LINK_DOWN));
    EXPECT_EQ(job.rma().stats(0).epochs_aborted, 3u);
    EXPECT_EQ(job.rma().stats(0).epochs_completed, 0u);
    // The two deferred epochs die deferred: none sends traffic first.
    EXPECT_EQ(job.rma().stats(0).epochs_activated, 1u);
    ASSERT_EQ(retired.size(), 3u);
    EXPECT_TRUE(std::is_sorted(retired.begin(), retired.end()));
    EXPECT_EQ(std::adjacent_find(retired.begin(), retired.end()),
              retired.end());
    for (const obs::Record& rec : job.rma().diagnostic_records()) {
        EXPECT_NE(rec.type(), "rma.epoch") << rec.render();
    }
}

// A lock_all deferred behind an active lock toward the peer whose link
// fails is retired without activating: it never asks the healthy ranks for
// a lock, so no lock manager there is left holding one nobody will release.
TEST(LinkDown, DeferredLockAllBehindDeadPeerTakesNoLocks) {
    JobConfig cfg;
    cfg.ranks = 4;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;

    std::size_t deferred = 0;
    std::vector<Status> statuses;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(4096);
        p.barrier();
        if (p.rank() != 0) return;
        const std::byte b{1};
        std::vector<Request> closes;
        win.lock(LockType::Exclusive, 1);
        win.put(&b, 1, 1, 0);
        closes.push_back(win.iunlock(1));
        win.lock_all();
        win.put(&b, 1, 2, 0);
        closes.push_back(win.iunlock_all());
        deferred = job.rma().deferred_count(0, win.id());
        job.world().fabric().fail_link_now(0, 1);
        for (Request& r : closes) {
            p.wait(r);
            statuses.push_back(r.status());
        }
    });
    EXPECT_EQ(deferred, 1u);
    EXPECT_EQ(statuses, std::vector<Status>(2, NBE_ERR_LINK_DOWN));
    EXPECT_EQ(job.rma().stats(0).epochs_activated, 1u);
    EXPECT_EQ(job.rma().stats(0).epochs_aborted, 2u);
    for (const obs::Record& rec : job.rma().diagnostic_records()) {
        EXPECT_NE(rec.type(), "rma.epoch") << rec.render();
        // Rank 1 may hold rank 0's exclusive lock: its unlock cannot arrive.
        if (rec.type() == "rma.lockmgr") {
            ASSERT_NE(rec.find("rank"), nullptr);
            EXPECT_EQ(*rec.find("rank"), "1") << rec.render();
        }
    }
}

TEST(LinkDown, RetryExhaustionAbortsBothSidesOfAnEpoch) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;
    cfg.fabric.fault.down.push_back(
        {0, 1, sim::milliseconds(5), sim::seconds(100)});

    Status origin_status = NBE_SUCCESS;
    Status target_status = NBE_SUCCESS;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(4096);
        p.barrier();
        p.compute(sim::milliseconds(10));
        if (p.rank() == 0) {
            const Rank g[] = {1};
            win.start(g);
            std::byte b{1};
            win.put(&b, 1, 1, 0);  // dropped until the link is declared dead
            Request close = win.icomplete();
            p.wait(close);
            origin_status = close.status();
        } else {
            const Rank g[] = {0};
            win.post(g);
            Request done = win.iwait_exposure();
            p.wait(done);
            target_status = done.status();
        }
    });
    EXPECT_EQ(origin_status, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(target_status, NBE_ERR_LINK_DOWN);
    EXPECT_GE(job.world().fabric().stats().links_failed, 1u);
    EXPECT_GT(job.world().fabric().stats().retransmits, 0u);
}

// ------------------------------------------------------ deadlock diagnostics

TEST(DeadlockDiagnostics, DumpNamesParkedRanksAndOpenEpochs) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;

    std::string msg;
    try {
        run(cfg, [&](Proc& p) {
            Window win = p.create_window(1024);
            p.barrier();
            if (p.rank() == 0) {
                const Rank g[] = {1};
                win.post(g);
                win.wait_exposure();  // rank 1 never opens an access epoch
            }
        });
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("simulation deadlock"), std::string::npos) << msg;
    // The parked process is named, with the request it is blocked on.
    EXPECT_NE(msg.find("rank0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked on"), std::string::npos) << msg;
    EXPECT_NE(msg.find("close exposure epoch"), std::string::npos) << msg;
    // The RMA diagnostic lists the open epoch and its state.
    EXPECT_NE(msg.find("rma open epochs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("kind=exposure"), std::string::npos) << msg;
    // The fabric diagnostic is appended as well.
    EXPECT_NE(msg.find("-- fabric --"), std::string::npos) << msg;
}

TEST(DeadlockDiagnostics, TwoSidedWaitShowsRequestLabel) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.fabric.ranks_per_node = 1;

    std::string msg;
    try {
        run(cfg, [&](Proc& p) {
            p.barrier();
            if (p.rank() == 0) {
                std::byte b{};
                p.recv(&b, 1, 1, 42);  // never sent
            }
        });
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("rank0: blocked on recv(src=1, tag=42)"),
              std::string::npos)
        << msg;
}

// ------------------------------------- aborted epochs and origin buffers

// When an epoch aborts, the application resumes with an error and may free
// (or reuse) its origin buffers — so abort must also drop their
// registration-cache entries. Regression: a pinned put buffer used to stay
// cached across the abort, and a later transfer from the same address
// false-hit the dead entry (pin_hits > 0) instead of re-registering.
TEST(EpochAbort, UnpinsOriginBuffersSoLaterTransfersMiss) {
    JobConfig cfg;
    cfg.ranks = 3;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;
    // Kill 0->1 after setup; 0->2 stays healthy.
    cfg.fabric.fault.down.push_back(
        {0, 1, sim::milliseconds(5), sim::seconds(100)});

    // Above the 16 KB pin threshold, so the put registers its source.
    constexpr std::size_t kBytes = 20000;
    Status first_close = NBE_SUCCESS;
    Status second_close = NBE_ERR_INTERNAL;
    std::byte seen{};
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(kBytes);
        p.barrier();
        p.compute(sim::milliseconds(10));  // move into the outage window
        if (p.rank() == 0) {
            std::vector<std::byte> buf(kBytes, std::byte{0x5a});
            {
                const Rank g[] = {1};
                win.start(g);
                win.put(buf.data(), buf.size(), 1, 0);  // pinned, then lost
                Request close = win.icomplete();
                p.wait(close);
                first_close = close.status();
            }
            {
                // Same source address toward a healthy peer: the abort must
                // have dropped the registration, so this re-pins (a miss).
                const Rank g[] = {2};
                win.start(g);
                win.put(buf.data(), buf.size(), 2, 0);
                Request close = win.icomplete();
                p.wait(close);
                second_close = close.status();
            }
        } else if (p.rank() == 1) {
            const Rank g[] = {0};
            win.post(g);
            Request done = win.iwait_exposure();
            p.wait(done);
        } else {
            const Rank g[] = {0};
            win.post(g);
            win.wait_exposure();
            seen = win.base()[0];
        }
    });
    EXPECT_EQ(first_close, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(second_close, NBE_SUCCESS);
    EXPECT_EQ(seen, std::byte{0x5a});
    const auto stats = job.world().fabric().stats();
    EXPECT_EQ(stats.pin_hits, 0u);   // stale entry would hit here
    EXPECT_GE(stats.pin_misses, 2u); // both puts registered from scratch
}

// Ops retire from their epoch's backlog as they finish, long before a
// lock_all session ends; an abort must still unpin their origin buffers.
// Here the put toward the healthy rank 2 is flushed (retired) before the
// link to rank 1 fails; a later put from the same buffer must re-pin.
TEST(LinkDown, AbortUnpinsBuffersOfRetiredOps) {
    JobConfig cfg;
    cfg.ranks = 3;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;

    // Above the 16 KB pin threshold, so the puts register their source.
    constexpr std::size_t kBytes = 20000;
    Status session_close = NBE_SUCCESS;
    std::uint64_t late_hits = 1;
    std::uint64_t late_misses = 0;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(kBytes);
        p.barrier();
        if (p.rank() != 0) return;
        std::vector<std::byte> buf(kBytes, std::byte{0x5a});
        win.lock_all();
        win.put(buf.data(), buf.size(), 2, 0);
        win.flush(2);  // the put is remotely complete: it has retired
        job.world().fabric().fail_link_now(0, 1);
        Request close = win.iunlock_all();
        p.wait(close);
        session_close = close.status();

        const auto before = job.world().fabric().stats();
        win.lock(LockType::Exclusive, 2);
        win.put(buf.data(), buf.size(), 2, 0);
        win.unlock(2);
        const auto after = job.world().fabric().stats();
        late_hits = after.pin_hits - before.pin_hits;
        late_misses = after.pin_misses - before.pin_misses;
    });
    EXPECT_EQ(session_close, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(late_hits, 0u);  // a kept registration would hit here
    EXPECT_EQ(late_misses, 1u);
}

namespace {

std::uint64_t protocol_errors(Job& job) {
    std::uint64_t n = 0;
    for (Rank r = 0; r < job.world().nranks(); ++r) {
        n += job.rma().stats(r).protocol_errors;
    }
    return n;
}

/// Rank `r`'s lock manager record, if its lock is held or queued.
std::optional<obs::Record> lockmgr_record(Job& job, Rank r) {
    for (obs::Record& rec : job.rma().diagnostic_records()) {
        const std::string* rank = rec.find("rank");
        if (rec.type() == "rma.lockmgr" && rank != nullptr &&
            *rank == std::to_string(r)) {
            return rec;
        }
    }
    return std::nullopt;
}

}  // namespace

// An active lock_all that aborts on a link failure must hand its shared
// locks back to the healthy peers: rank 2 grants rank 0 an exclusive lock
// afterwards, and no late grant or ack counts as a protocol error.
TEST(LinkDown, AbortedLockAllUnlocksHealthyPeers) {
    JobConfig cfg;
    cfg.ranks = 3;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;

    Status session_close = NBE_SUCCESS;
    Status lock_close = NBE_ERR_TIMEOUT;
    std::uint64_t landed = 0;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        if (p.rank() == 0) {
            const std::uint64_t one = 1;
            const std::uint64_t two = 2;
            win.lock_all();
            win.put(&one, sizeof one, 2, 0);
            win.flush(2);  // every peer has granted by now
            job.world().fabric().fail_link_now(0, 1);
            p.compute(sim::microseconds(50));  // the abort runs here
            Request close = win.iunlock_all();
            p.wait(close);
            session_close = close.status();

            win.lock(LockType::Exclusive, 2);
            win.put(&two, sizeof two, 2, 0);
            Request unlock = win.iunlock(2);
            p.wait(unlock);
            lock_close = unlock.status();
        }
    });
    std::memcpy(&landed, job.rma().win_base(2, 0), sizeof landed);
    EXPECT_EQ(session_close, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(lock_close, NBE_SUCCESS);
    EXPECT_EQ(landed, 2u);
    EXPECT_EQ(protocol_errors(job), 0u);
    EXPECT_FALSE(lockmgr_record(job, 2).has_value());
}

// As above, but the lock_all's request to rank 2 still waits behind rank
// 3's exclusive hold when the session aborts. The grant that comes later
// belongs to the dead session: rank 0 hands it straight back instead of
// passing it to its next (exclusive) lock on rank 2.
TEST(LinkDown, AbortedLockAllReleasesAGrantThatArrivesLater) {
    JobConfig cfg;
    cfg.ranks = 4;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;

    std::string queued_at_abort;
    Status session_close = NBE_SUCCESS;
    Status lock_close = NBE_ERR_TIMEOUT;
    sim::Time lock_granted_at = 0;
    std::uint64_t landed = 0;
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        p.barrier();
        if (p.rank() == 3) {
            win.lock(LockType::Exclusive, 2);
            p.compute(sim::milliseconds(1));
            win.unlock(2);
        } else if (p.rank() == 0) {
            const std::uint64_t two = 2;
            p.compute(sim::microseconds(20));  // rank 3 holds rank 2 by now
            win.lock_all();
            p.compute(sim::microseconds(20));  // the request is queued at 2
            if (const auto rec = lockmgr_record(job, 2)) {
                queued_at_abort = *rec->find("queued");
            }
            job.world().fabric().fail_link_now(0, 1);
            Request close = win.iunlock_all();
            p.wait(close);
            session_close = close.status();

            win.lock(LockType::Exclusive, 2);
            win.put(&two, sizeof two, 2, 0);
            lock_granted_at = p.now();
            Request unlock = win.iunlock(2);
            p.wait(unlock);
            lock_close = unlock.status();
        }
    });
    std::memcpy(&landed, job.rma().win_base(2, 0), sizeof landed);
    EXPECT_EQ(queued_at_abort, "1");
    EXPECT_EQ(session_close, NBE_ERR_LINK_DOWN);
    EXPECT_EQ(lock_close, NBE_SUCCESS);
    EXPECT_LT(lock_granted_at, sim::milliseconds(1));  // nonblocking put
    EXPECT_EQ(landed, 2u);
    EXPECT_EQ(protocol_errors(job), 0u);
    EXPECT_FALSE(lockmgr_record(job, 2).has_value());
}

// A get-family op whose epoch aborts must never write origin_out: the
// reply is either lost with the link or dropped by the pending-reply
// table, and the sentinel pattern stays intact for the application.
TEST(EpochAbort, AbortedGetLeavesOriginBufferUntouched) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    cfg.fabric.fault.enabled = true;
    cfg.fabric.fault.down.push_back(
        {0, 1, sim::milliseconds(5), sim::seconds(100)});

    Status close_status = NBE_SUCCESS;
    bool intact = false;
    run(cfg, [&](Proc& p) {
        Window win = p.create_window(4096);
        p.barrier();
        p.compute(sim::milliseconds(10));
        if (p.rank() == 0) {
            std::vector<std::byte> out(4096, std::byte{0xab});
            const Rank g[] = {1};
            win.start(g);
            win.get(out.data(), out.size(), 1, 0);
            Request close = win.icomplete();
            p.wait(close);
            close_status = close.status();
            intact = std::all_of(out.begin(), out.end(), [](std::byte b) {
                return b == std::byte{0xab};
            });
        } else {
            const Rank g[] = {0};
            win.post(g);
            Request done = win.iwait_exposure();
            p.wait(done);
        }
    });
    EXPECT_EQ(close_status, NBE_ERR_LINK_DOWN);
    EXPECT_TRUE(intact);
}
