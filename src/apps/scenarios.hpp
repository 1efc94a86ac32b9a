// The paper's microbenchmark scenarios (Section VIII-A): one function per
// inefficiency pattern (Figures 2-6) and per progress-engine optimization
// flag (Figures 7-11). Shared between the test suite (which asserts the
// latency *shapes*) and the bench harness (which prints the figures' rows).
//
// All scenarios run one rank per simulated node (the paper's processes sit
// on distinct cluster nodes) and use the calibrated fabric defaults: a 1 MB
// put costs ~340 us, the injected delay is 1000 us unless stated otherwise.
#pragma once

#include <cstddef>

#include "core/window.hpp"

namespace nbe::apps {

/// Default artificial delay used by every pattern scenario (paper: 1000 us).
inline constexpr sim::Duration kDelay = sim::microseconds(1000);

/// JobConfig with one rank per node (internode paths everywhere). When
/// `fault` is given, the fabric runs that fault model; with
/// `fault->enabled` the reliable-delivery sublayer recovers from it (the
/// patterns then exercise retransmission paths).
JobConfig internode_config(int ranks, Mode mode,
                           const net::FaultConfig* fault = nullptr);

// ---------------------------------------------------------------- Figure 2

/// Late Post: target P0 posts `delay` late; origin P2 runs a 1 MB put epoch
/// toward P0 and then a 1 MB two-sided exchange with P1.
struct LatePostResult {
    double access_epoch_us = 0;  ///< origin epoch open -> completion detected
    double two_sided_us = 0;     ///< the subsequent two-sided activity
    double cumulative_us = 0;    ///< both activities, wall-clock at the origin
};
LatePostResult late_post(Mode mode, std::size_t put_bytes = 1 << 20,
                         sim::Duration delay = kDelay,
                         const net::FaultConfig* fault = nullptr);

// ---------------------------------------------------------------- Figure 3

/// Late Complete: origin puts `bytes`, overlaps `work` of computation, then
/// closes. The target-side epoch length shows the propagated delay.
struct LateCompleteResult {
    double target_epoch_us = 0;  ///< post -> wait return at the target
    double origin_epoch_us = 0;  ///< start -> completion at the origin
};
LateCompleteResult late_complete(Mode mode, std::size_t bytes,
                                 sim::Duration work = kDelay,
                                 const net::FaultConfig* fault = nullptr);

// ---------------------------------------------------------------- Figure 4

/// Early Fence: origin puts `bytes` inside a fence epoch; the target closes
/// its fence immediately and then performs `work` of CPU-bound activity.
/// Returns the target's cumulative latency of epoch close + work.
double early_fence_cumulative_us(Mode mode, std::size_t bytes,
                                 sim::Duration work = kDelay,
                                 const net::FaultConfig* fault = nullptr);

// ---------------------------------------------------------------- Figure 5

/// Wait at Fence: the origin delays its closing fence by `work` beyond the
/// end of its transfers. Returns the target's closing-fence epoch length.
double wait_at_fence_target_us(Mode mode, std::size_t bytes,
                               sim::Duration work = kDelay,
                               const net::FaultConfig* fault = nullptr);

// ---------------------------------------------------------------- Figure 6

/// Late Unlock: O0 takes the exclusive lock first, transfers 1 MB and works
/// `work` before unlocking; O1 requests the same exclusive lock just after.
struct LateUnlockResult {
    double first_lock_us = 0;   ///< O0's epoch
    double second_lock_us = 0;  ///< O1's epoch (the Late Unlock victim)
};
LateUnlockResult late_unlock(Mode mode, std::size_t bytes = 1 << 20,
                             sim::Duration work = kDelay,
                             const net::FaultConfig* fault = nullptr);

// ------------------------------------------------------- Figures 7-11

/// A_A_A_R over GATS: one origin, two targets; the first target posts late.
struct AaarGatsResult {
    double target1_epoch_us = 0;     ///< the second target's exposure epoch
    double origin_cumulative_us = 0; ///< both access epochs at the origin
};
AaarGatsResult aaar_gats(bool flag_on, std::size_t bytes = 1 << 20,
                         sim::Duration delay = kDelay);

/// A_A_A_R over locks: O0 holds T0's lock for `delay`; O1 locks T0 then T1.
/// Returns O1's cumulative latency across both lock epochs.
double aaar_lock_cumulative_us(bool flag_on, std::size_t bytes = 1 << 20,
                               sim::Duration delay = kDelay);

/// A_A_E_R: P2 is a target for (late) P0, then an origin for P1.
struct ChainResult {
    double victim_epoch_us = 0;  ///< the downstream peer's epoch
    double middle_cumulative_us = 0;  ///< P2's two epochs, cumulative
};
ChainResult aaer(bool flag_on, std::size_t bytes = 1 << 20,
                 sim::Duration delay = kDelay);

/// E_A_E_R: a target exposes to (late) O0 and then to O1.
ChainResult eaer(bool flag_on, std::size_t bytes = 1 << 20,
                 sim::Duration delay = kDelay);

/// E_A_A_R: P2 is an origin for (late) P0, then a target for P1.
ChainResult eaar(bool flag_on, std::size_t bytes = 1 << 20,
                 sim::Duration delay = kDelay);

// ----------------------------------------------------- §VIII-A summary

/// Pure epoch latency (no delays, no late peers) for one epoch kind, used
/// by the latency-parity microbenchmark.
double pure_epoch_latency_us(Mode mode, EpochKind kind, std::size_t bytes);

/// Communication/computation overlap ratio for a lock epoch hosting one put
/// of `bytes` overlapped with `work`: 1.0 = full overlap, 0.0 = none.
/// MVAPICH's lazy lock acquisition yields ~0 (paper §VIII-A).
double lock_overlap_ratio(Mode mode, std::size_t bytes, sim::Duration work);

}  // namespace nbe::apps
