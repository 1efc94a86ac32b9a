#include "apps/scenarios.hpp"

#include <vector>

namespace nbe::apps {

namespace {

bool nb(Mode mode) { return mode == Mode::NewNonblocking; }

std::vector<std::byte> payload(std::size_t bytes) {
    return std::vector<std::byte>(bytes, std::byte{0x5a});
}

}  // namespace

JobConfig internode_config(int ranks, Mode mode,
                           const net::FaultConfig* fault) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = mode;
    cfg.fabric.ranks_per_node = 1;
    if (fault != nullptr) cfg.fabric.fault = *fault;
    return cfg;
}

// ---------------------------------------------------------------- Figure 2

LatePostResult late_post(Mode mode, std::size_t put_bytes,
                         sim::Duration delay, const net::FaultConfig* fault) {
    LatePostResult res;
    run(internode_config(3, mode, fault), [&](Proc& p) {
        Window win = p.create_window(put_bytes);
        auto buf = payload(put_bytes);
        p.barrier();
        const Rank kTarget = 0;
        const Rank kPeer = 1;
        const Rank kOrigin = 2;
        if (p.rank() == kTarget) {
            p.compute(delay);  // the late post
            const Rank g[] = {kOrigin};
            win.post(g);
            win.wait_exposure();
        } else if (p.rank() == kPeer) {
            p.recv(buf.data(), buf.size(), kOrigin, 1);
        } else {
            const auto t0 = p.now();
            const Rank g[] = {kTarget};
            win.start(g);
            win.put(buf.data(), buf.size(), kTarget, 0);
            if (nb(mode)) {
                Request r = win.icomplete();
                const auto ts0 = p.now();
                p.send(buf.data(), buf.size(), kPeer, 1);
                res.two_sided_us = sim::to_usec(p.now() - ts0);
                p.wait(r);
                res.access_epoch_us = sim::to_usec(p.now() - t0);
            } else {
                win.complete();
                res.access_epoch_us = sim::to_usec(p.now() - t0);
                const auto ts0 = p.now();
                p.send(buf.data(), buf.size(), kPeer, 1);
                res.two_sided_us = sim::to_usec(p.now() - ts0);
            }
            res.cumulative_us = sim::to_usec(p.now() - t0);
        }
    });
    return res;
}

// ---------------------------------------------------------------- Figure 3

LateCompleteResult late_complete(Mode mode, std::size_t bytes,
                                 sim::Duration work,
                                 const net::FaultConfig* fault) {
    LateCompleteResult res;
    run(internode_config(2, mode, fault), [&](Proc& p) {
        Window win = p.create_window(bytes);
        auto buf = payload(bytes);
        p.barrier();
        if (p.rank() == 0) {  // origin
            // The target is explicitly *not* late in this experiment; give
            // its post a moment to land so every implementation (including
            // MVAPICH's batch-at-close engine) can transfer eagerly.
            p.compute(sim::microseconds(5));
            const Rank g[] = {1};
            const auto t0 = p.now();
            win.start(g);
            win.put(buf.data(), buf.size(), 1, 0);
            if (nb(mode)) {
                Request r = win.icomplete();
                p.compute(work);
                p.wait(r);
            } else {
                p.compute(work);  // in-epoch overlap: scenario 3 of Fig. 1(a)
                win.complete();
            }
            res.origin_epoch_us = sim::to_usec(p.now() - t0);
        } else {  // target
            const Rank g[] = {0};
            const auto t0 = p.now();
            win.post(g);
            win.wait_exposure();
            res.target_epoch_us = sim::to_usec(p.now() - t0);
        }
    });
    return res;
}

// ---------------------------------------------------------------- Figure 4

double early_fence_cumulative_us(Mode mode, std::size_t bytes,
                                 sim::Duration work,
                                 const net::FaultConfig* fault) {
    double cumulative = 0;
    run(internode_config(2, mode, fault), [&](Proc& p) {
        Window win = p.create_window(bytes);
        auto buf = payload(bytes);
        p.barrier();
        win.fence();
        if (p.rank() == 0) {  // origin
            win.put(buf.data(), buf.size(), 1, 0);
            win.fence(rma::kNoSucceed);
        } else {  // target: early closing fence, then CPU-bound work
            const auto t0 = p.now();
            if (nb(mode)) {
                Request r = win.ifence(rma::kNoSucceed);
                p.compute(work);
                p.wait(r);
            } else {
                win.fence(rma::kNoSucceed);
                p.compute(work);
            }
            cumulative = sim::to_usec(p.now() - t0);
        }
    });
    return cumulative;
}

// ---------------------------------------------------------------- Figure 5

double wait_at_fence_target_us(Mode mode, std::size_t bytes,
                               sim::Duration work,
                               const net::FaultConfig* fault) {
    double target_us = 0;
    run(internode_config(2, mode, fault), [&](Proc& p) {
        Window win = p.create_window(bytes);
        auto buf = payload(bytes);
        p.barrier();
        win.fence();
        if (p.rank() == 0) {  // origin delays its closing fence
            win.put(buf.data(), buf.size(), 1, 0);
            if (nb(mode)) {
                Request r = win.ifence(rma::kNoSucceed);  // issued early
                p.compute(work);
                p.wait(r);
            } else {
                p.compute(work);
                win.fence(rma::kNoSucceed);
            }
        } else {  // target measures its closing fence
            const auto t0 = p.now();
            if (nb(mode)) {
                Request r = win.ifence(rma::kNoSucceed);
                p.wait(r);
            } else {
                win.fence(rma::kNoSucceed);
            }
            target_us = sim::to_usec(p.now() - t0);
        }
    });
    return target_us;
}

// ---------------------------------------------------------------- Figure 6

LateUnlockResult late_unlock(Mode mode, std::size_t bytes,
                             sim::Duration work,
                             const net::FaultConfig* fault) {
    LateUnlockResult res;
    run(internode_config(3, mode, fault), [&](Proc& p) {
        Window win = p.create_window(bytes);
        auto buf = payload(bytes);
        p.barrier();
        const Rank kTarget = 0;
        if (p.rank() == 1) {  // O0: first lock holder
            const auto t0 = p.now();
            win.lock(LockType::Exclusive, kTarget);
            win.put(buf.data(), buf.size(), kTarget, 0);
            if (nb(mode)) {
                Request r = win.iunlock(kTarget);
                p.compute(work);
                p.wait(r);
            } else {
                p.compute(work);
                win.unlock(kTarget);
            }
            res.first_lock_us = sim::to_usec(p.now() - t0);
        } else if (p.rank() == 2) {  // O1: subsequent requester
            p.compute(sim::microseconds(50));  // lock strictly after O0
            const auto t0 = p.now();
            if (nb(mode)) {
                win.ilock(LockType::Exclusive, kTarget);
                win.put(buf.data(), buf.size(), kTarget, 0);
                Request r = win.iunlock(kTarget);
                p.wait(r);
            } else {
                win.lock(LockType::Exclusive, kTarget);
                win.put(buf.data(), buf.size(), kTarget, 0);
                win.unlock(kTarget);
            }
            res.second_lock_us = sim::to_usec(p.now() - t0);
        }
        p.barrier();
    });
    return res;
}

// ---------------------------------------------------------------- Figure 7

AaarGatsResult aaar_gats(bool flag_on, std::size_t bytes,
                         sim::Duration delay) {
    AaarGatsResult res;
    WinInfo info;
    info.access_after_access = flag_on;
    run(internode_config(3, Mode::NewNonblocking), [&](Proc& p) {
        Window win = p.create_window(bytes, info);
        auto buf = payload(bytes);
        p.barrier();
        const Rank kOrigin = 0;
        const Rank kT0 = 1;
        const Rank kT1 = 2;
        if (p.rank() == kOrigin) {
            const auto t0 = p.now();
            const Rank g0[] = {kT0};
            const Rank g1[] = {kT1};
            win.istart(g0);
            win.put(buf.data(), buf.size(), kT0, 0);
            Request r0 = win.icomplete();
            win.istart(g1);
            win.put(buf.data(), buf.size(), kT1, 0);
            Request r1 = win.icomplete();
            p.wait(r0);
            p.wait(r1);
            res.origin_cumulative_us = sim::to_usec(p.now() - t0);
        } else if (p.rank() == kT0) {
            p.compute(delay);  // late post -> Late Post for epoch 1
            const Rank g[] = {kOrigin};
            win.post(g);
            win.wait_exposure();
        } else {
            const Rank g[] = {kOrigin};
            const auto t0 = p.now();
            win.post(g);
            win.wait_exposure();
            res.target1_epoch_us = sim::to_usec(p.now() - t0);
        }
    });
    return res;
}

// ---------------------------------------------------------------- Figure 8

double aaar_lock_cumulative_us(bool flag_on, std::size_t bytes,
                               sim::Duration delay) {
    double cumulative = 0;
    WinInfo info;
    info.access_after_access = flag_on;
    run(internode_config(4, Mode::NewNonblocking), [&](Proc& p) {
        Window win = p.create_window(bytes, info);
        auto buf = payload(bytes);
        p.barrier();
        const Rank kT0 = 0;
        const Rank kT1 = 1;
        if (p.rank() == 2) {  // O0: grabs T0's lock and sits on it
            win.lock(LockType::Exclusive, kT0);
            p.compute(delay);
            win.unlock(kT0);
        } else if (p.rank() == 3) {  // O1: T0 (blocked) then T1 (free)
            p.compute(sim::microseconds(50));  // request strictly after O0
            const auto t0 = p.now();
            win.ilock(LockType::Exclusive, kT0);
            win.put(buf.data(), buf.size(), kT0, 0);
            Request r0 = win.iunlock(kT0);
            win.ilock(LockType::Exclusive, kT1);
            win.put(buf.data(), buf.size(), kT1, 0);
            Request r1 = win.iunlock(kT1);
            p.wait(r0);
            p.wait(r1);
            cumulative = sim::to_usec(p.now() - t0);
        }
        p.barrier();
    });
    return cumulative;
}

// ---------------------------------------------------------------- Figure 9

ChainResult aaer(bool flag_on, std::size_t bytes, sim::Duration delay) {
    ChainResult res;
    WinInfo info;
    info.access_after_exposure = flag_on;
    run(internode_config(3, Mode::NewNonblocking), [&](Proc& p) {
        Window win = p.create_window(bytes, info);
        auto buf = payload(bytes);
        p.barrier();
        const Rank kP0 = 0;  // late origin
        const Rank kP1 = 1;  // downstream target (the victim)
        const Rank kP2 = 2;  // target for P0, then origin for P1
        if (p.rank() == kP0) {
            p.compute(delay);
            const Rank g[] = {kP2};
            win.start(g);
            win.put(buf.data(), buf.size(), kP2, 0);
            win.complete();
        } else if (p.rank() == kP1) {
            const Rank g[] = {kP2};
            const auto t0 = p.now();
            win.post(g);
            win.wait_exposure();
            res.victim_epoch_us = sim::to_usec(p.now() - t0);
        } else {
            const auto t0 = p.now();
            const Rank gexp[] = {kP0};
            win.ipost(gexp);
            Request r0 = win.iwait_exposure();
            const Rank gacc[] = {kP1};
            win.istart(gacc);
            win.put(buf.data(), buf.size(), kP1, 0);
            Request r1 = win.icomplete();
            p.wait(r0);
            p.wait(r1);
            res.middle_cumulative_us = sim::to_usec(p.now() - t0);
        }
    });
    return res;
}

// --------------------------------------------------------------- Figure 10

ChainResult eaer(bool flag_on, std::size_t bytes, sim::Duration delay) {
    ChainResult res;
    WinInfo info;
    info.exposure_after_exposure = flag_on;
    run(internode_config(3, Mode::NewNonblocking), [&](Proc& p) {
        Window win = p.create_window(bytes, info);
        auto buf = payload(bytes);
        p.barrier();
        const Rank kTarget = 0;
        const Rank kO0 = 1;  // late origin
        const Rank kO1 = 2;  // the victim
        if (p.rank() == kTarget) {
            const auto t0 = p.now();
            const Rank g0[] = {kO0};
            const Rank g1[] = {kO1};
            win.ipost(g0);
            Request r0 = win.iwait_exposure();
            win.ipost(g1);
            Request r1 = win.iwait_exposure();
            p.wait(r0);
            p.wait(r1);
            res.middle_cumulative_us = sim::to_usec(p.now() - t0);
        } else if (p.rank() == kO0) {
            p.compute(delay);
            const Rank g[] = {kTarget};
            win.start(g);
            win.put(buf.data(), buf.size(), kTarget, 0);
            win.complete();
        } else {
            const Rank g[] = {kTarget};
            const auto t0 = p.now();
            win.start(g);
            win.put(buf.data(), buf.size(), kTarget, 0);
            win.complete();
            res.victim_epoch_us = sim::to_usec(p.now() - t0);
        }
    });
    return res;
}

// --------------------------------------------------------------- Figure 11

ChainResult eaar(bool flag_on, std::size_t bytes, sim::Duration delay) {
    ChainResult res;
    WinInfo info;
    info.exposure_after_access = flag_on;
    run(internode_config(3, Mode::NewNonblocking), [&](Proc& p) {
        Window win = p.create_window(bytes, info);
        auto buf = payload(bytes);
        p.barrier();
        const Rank kP0 = 0;  // late target
        const Rank kP1 = 1;  // origin toward P2 (the victim)
        const Rank kP2 = 2;  // origin for P0, then target for P1
        if (p.rank() == kP0) {
            p.compute(delay);
            const Rank g[] = {kP2};
            win.post(g);
            win.wait_exposure();
        } else if (p.rank() == kP1) {
            const Rank g[] = {kP2};
            const auto t0 = p.now();
            win.start(g);
            win.put(buf.data(), buf.size(), kP2, 0);
            win.complete();
            res.victim_epoch_us = sim::to_usec(p.now() - t0);
        } else {
            const auto t0 = p.now();
            const Rank gacc[] = {kP0};
            win.istart(gacc);
            win.put(buf.data(), buf.size(), kP0, 0);
            Request r0 = win.icomplete();
            const Rank gexp[] = {kP1};
            win.ipost(gexp);
            Request r1 = win.iwait_exposure();
            p.wait(r0);
            p.wait(r1);
            res.middle_cumulative_us = sim::to_usec(p.now() - t0);
        }
    });
    return res;
}

// ------------------------------------------------------ §VIII-A summary

double pure_epoch_latency_us(Mode mode, EpochKind kind, std::size_t bytes) {
    double latency = 0;
    run(internode_config(2, mode), [&](Proc& p) {
        Window win = p.create_window(bytes);
        auto buf = payload(bytes);
        p.barrier();
        switch (kind) {
            case EpochKind::Fence: {
                win.fence();
                const auto t0 = p.now();
                if (p.rank() == 0) win.put(buf.data(), buf.size(), 1, 0);
                win.fence(rma::kNoSucceed);
                if (p.rank() == 0) latency = sim::to_usec(p.now() - t0);
                break;
            }
            case EpochKind::Access:
            case EpochKind::Exposure: {
                const Rank g[] = {1 - p.rank()};
                if (p.rank() == 0) {
                    const auto t0 = p.now();
                    win.start(g);
                    win.put(buf.data(), buf.size(), 1, 0);
                    win.complete();
                    latency = sim::to_usec(p.now() - t0);
                } else {
                    win.post(g);
                    win.wait_exposure();
                }
                break;
            }
            case EpochKind::Lock:
            case EpochKind::LockAll: {
                if (p.rank() == 0) {
                    const auto t0 = p.now();
                    win.lock(LockType::Exclusive, 1);
                    win.put(buf.data(), buf.size(), 1, 0);
                    win.unlock(1);
                    latency = sim::to_usec(p.now() - t0);
                }
                p.barrier();
                break;
            }
        }
    });
    return latency;
}

double lock_overlap_ratio(Mode mode, std::size_t bytes, sim::Duration work) {
    // Measures how much of `work` hides behind the epoch's data transfer:
    //   epoch_with_work ~ max(transfer, work)  -> full overlap (ratio 1)
    //   epoch_with_work ~ transfer + work      -> no overlap  (ratio 0)
    double base_us = 0;
    double with_work_us = 0;
    for (int pass = 0; pass < 2; ++pass) {
        double measured = 0;
        run(internode_config(2, mode), [&](Proc& p) {
            Window win = p.create_window(bytes);
            auto buf = payload(bytes);
            p.barrier();
            if (p.rank() == 0) {
                const auto t0 = p.now();
                win.lock(LockType::Exclusive, 1);
                win.put(buf.data(), buf.size(), 1, 0);
                if (pass == 1) p.compute(work);
                win.unlock(1);
                measured = sim::to_usec(p.now() - t0);
            }
            p.barrier();
        });
        (pass == 0 ? base_us : with_work_us) = measured;
    }
    const double work_us = sim::to_usec(work);
    const double serialized = base_us + work_us;
    const double overlapped =
        std::max(base_us, work_us) > 0 ? std::max(base_us, work_us) : 1.0;
    if (serialized <= overlapped) return 1.0;
    const double ratio =
        (serialized - with_work_us) / (serialized - overlapped);
    return std::clamp(ratio, 0.0, 1.0);
}

}  // namespace nbe::apps
