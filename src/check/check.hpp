// Online RMA semantics validation (the paper's correctness contract).
//
// The progress engine defers, batches and replays epochs aggressively; the
// one thing none of that may change is MPI RMA semantics. This layer is the
// watchdog for exactly the two error classes the MPI-3 spec defines and
// tools like MUST / Nasty-MPI detect in real runs:
//
//  1. Erroneous overlapping accesses. Every access that reaches a window —
//     remote put/get/accumulate-family data applied by the engine, and
//     local loads/stores through Window::read/write — is recorded as a
//     byte-range interval in a per-(rank, window) shadow. Two overlapping
//     intervals conflict unless both are reads, both are accumulate-family
//     (MPI guarantees element-wise atomicity there), or both are local
//     (same process, program-ordered). Conflicts are only compared within
//     one synchronization phase: remote intervals are tagged with the
//     target-side epoch they were applied under (fence / exposure epoch
//     seq, or a per-origin passive-target lock session) and dropped when
//     that phase closes; local intervals are wildcards, dropped at any
//     sync point on their window. The engine's grant protocol orders every
//     remote apply inside its matching target epoch, so the phase tag is
//     exact — a put in fence phase N+1 is never compared against phase-N
//     intervals even when phases overlap in virtual time across ranks.
//
//  2. Epoch state-machine misuse. Lock/unlock pairing, double closes and
//     ops posted outside any open epoch are recorded as structured errors
//     (the engine's exceptions stay; the checker gives tests and CI a
//     machine-readable account instead of a what() string). Two checks
//     need the checker's global view: fence assertion consistency (every
//     rank's k-th fence on a window must pass the same asserts) and GATS
//     group matching (each MPI_WIN_START naming t must be met by an
//     MPI_WIN_POST at t naming the origin — validated at finalize over
//     per-pair epoch counts).
//
// Everything is reported through obs::Record ("check.conflict" /
// "check.epoch" types, with the offending ops' posted_at/age stamps, which
// each interval takes from the origin-side op registry when its op is
// applied) plus counters in the metrics registry, and summarized as a
// Status: NBE_ERR_SEMANTICS when anything was flagged.
//
// Enabled at runtime with NBE_CHECK=1 (or JobConfig::check in tests).
// Every hook site tests World::checker() first, so a job without the
// checker pays one null test per hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "net/packet.hpp"
#include "net/status.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"
#include "sim/engine.hpp"

namespace nbe::check {

/// True when NBE_CHECK=1 in the environment (JobConfig::check default).
[[nodiscard]] bool env_enabled() noexcept;

/// Access classes for shadow-range tracking. Local* are application-side
/// loads/stores on the window; the rest are remote RMA applies.
enum class Access : std::uint8_t { LocalLoad, LocalStore, Read, Write, Accum };

[[nodiscard]] constexpr const char* to_string(Access a) noexcept {
    switch (a) {
        case Access::LocalLoad: return "local_load";
        case Access::LocalStore: return "local_store";
        case Access::Read: return "get";
        case Access::Write: return "put";
        case Access::Accum: return "accumulate";
    }
    return "?";
}

/// Access class of a remote op's window-side effect. The accumulate family
/// (including CAS / fetch&op) is mutually atomic per MPI-3; plain get is a
/// read; put is a write; get_accumulate both reads and modifies but the
/// whole family is one atomic class.
[[nodiscard]] constexpr Access access_class(rma::OpKind k) noexcept {
    switch (k) {
        case rma::OpKind::Put: return Access::Write;
        case rma::OpKind::Get: return Access::Read;
        case rma::OpKind::Accumulate:
        case rma::OpKind::GetAccumulate:
        case rma::OpKind::FetchAndOp:
        case rma::OpKind::CompareAndSwap: return Access::Accum;
    }
    return Access::Write;
}

struct CheckStats {
    std::uint64_t accesses = 0;        ///< intervals recorded (remote + local)
    std::uint64_t conflicts = 0;       ///< overlapping-access pairs flagged
    std::uint64_t epoch_errors = 0;    ///< state-machine violations
    std::uint64_t phases_closed = 0;   ///< sync points that retired intervals
    std::uint64_t intervals_peak = 0;  ///< max live intervals on one window
};

class Checker {
public:
    Checker(int nranks, sim::Engine& engine, obs::Obs* obs);

    Checker(const Checker&) = delete;
    Checker& operator=(const Checker&) = delete;

    // ---- topology ----
    void add_window(net::Rank rank, std::uint32_t win, std::size_t bytes);

    // ---- shadow byte-range tracking ----
    /// Origin-side op metadata, recorded when the op is posted and held
    /// until the op is applied (remote_access), whose interval keeps it for
    /// conflict records.
    void note_op(net::Rank origin, std::uint32_t win, std::uint64_t op_id,
                 sim::Time posted_at, std::uint64_t age);
    /// A remote op's data applied at `rank`'s window. `phase_key` is the
    /// target-side epoch seq for fence/GATS traffic, or 0 for
    /// passive-target traffic (attributed to the origin's open lock
    /// session). Every op is applied once: its note_op entry is dropped.
    void remote_access(net::Rank rank, std::uint32_t win, net::Rank origin,
                       rma::OpKind kind, std::size_t disp, std::size_t len,
                       std::uint64_t op_id, std::uint64_t phase_key);
    /// Application load/store through Window::read / Window::write.
    void local_access(net::Rank rank, std::uint32_t win, std::size_t off,
                      std::size_t len, bool store);
    /// The application entered a synchronization call on this window
    /// (fence/GATS/lock family, flush). Sync calls are MPI's separation
    /// points between local accesses and RMA epochs: local intervals
    /// recorded before the call must not be compared against remote data
    /// arriving in the epoch it opens, so they retire here. (Remote data
    /// cannot arrive before the call that grants it: origins only issue
    /// after this rank's grant, which activation sends after this point.)
    void sync_call(net::Rank rank, std::uint32_t win);
    /// An exposure-side epoch (fence / GATS exposure) completed or aborted
    /// at `rank`: its phase's intervals are retired.
    void phase_complete(net::Rank rank, std::uint32_t win,
                        std::uint64_t phase_key);
    /// The target processed `origin`'s unlock: the origin's lock session
    /// on this window closes.
    void unlock_session(net::Rank rank, std::uint32_t win, net::Rank origin);

    // ---- epoch state machine ----
    void epoch_open(net::Rank rank, std::uint32_t win, rma::EpochKind kind,
                    std::uint64_t seq, std::span<const net::Rank> peers);
    /// Every rank's k-th fence on a window must agree on `asserts`.
    void fence_asserts(net::Rank rank, std::uint32_t win, unsigned asserts);
    /// Structured usage error (double lock, op outside epoch, ...). The
    /// engine still throws; this leaves the machine-readable account.
    void usage_error(net::Rank rank, std::uint32_t win, const char* what,
                     std::string detail);

    /// Job-end validation: GATS access/exposure pair counts per
    /// (origin, target, win) must match.
    void finalize();

    // ---- results ----
    /// NBE_ERR_SEMANTICS when any conflict or epoch error was flagged.
    [[nodiscard]] Status status() const noexcept;
    [[nodiscard]] const CheckStats& stats() const noexcept { return stats_; }
    /// All "check.*" records flagged so far (capped; stats_ counts all).
    [[nodiscard]] const std::vector<obs::Record>& records() const noexcept {
        return records_;
    }
    /// Ops noted but not applied yet: those in flight, and those whose
    /// epoch aborted before they were applied.
    [[nodiscard]] std::size_t ops_in_flight() const noexcept {
        return ops_.size();
    }

private:
    /// Wildcard phase for local accesses: compared against every phase,
    /// retired at any sync point on the window.
    static constexpr std::uint64_t kLocalPhase = ~0ULL;
    /// Passive-target phases: bit 63 | origin | per-origin session ordinal
    /// (disjoint from epoch seqs, which start at 1 and stay small).
    [[nodiscard]] static std::uint64_t lock_phase(net::Rank origin,
                                                 std::uint64_t session) {
        return (1ULL << 63) | (static_cast<std::uint64_t>(origin) << 40) |
               session;
    }

    struct Interval {
        net::Rank origin = -1;  ///< accessing rank (== rank for local)
        Access cls = Access::Write;
        bool noted = false;  ///< posted_at/age came from the op registry
        std::size_t lo = 0, hi = 0;  ///< [lo, hi) byte range
        std::uint64_t phase = 0;
        std::uint64_t op_id = 0;  ///< 0 for local accesses
        sim::Time at = 0;         ///< virtual time applied / accessed
        sim::Time posted_at = 0;  ///< when the origin posted the op
        std::uint64_t age = 0;    ///< the op's age when posted
    };

    struct WinShadow {
        std::size_t bytes = 0;
        std::vector<Interval> live;
        /// (origin, lock session ordinal), sorted by origin, for the origins
        /// that unlocked here; any other origin is in its session 0.
        std::vector<std::pair<net::Rank, std::uint64_t>> sessions;
    };

    [[nodiscard]] static bool conflicting(const Interval& a, const Interval& b);
    void add_interval(net::Rank rank, std::uint32_t win, Interval iv);
    void record_conflict(net::Rank rank, std::uint32_t win, const Interval& a,
                         const Interval& b);
    void record_epoch_error(obs::Record rec);
    WinShadow& shadow(net::Rank rank, std::uint32_t win);

    sim::Engine& engine_;
    obs::Obs* obs_;
    std::vector<std::vector<WinShadow>> wins_;  // [rank][win]
    CheckStats stats_;
    std::vector<obs::Record> records_;
    bool finalized_ = false;

    /// Origin-side op registry of the ops not applied yet:
    /// (origin, win, op_id) -> posted_at/age.
    struct OpInfo {
        sim::Time posted_at = 0;
        std::uint64_t age = 0;
    };
    std::unordered_map<std::uint64_t, OpInfo> ops_;
    [[nodiscard]] static std::uint64_t op_key(net::Rank origin,
                                              std::uint32_t win,
                                              std::uint64_t op_id) {
        return (static_cast<std::uint64_t>(origin) << 52) ^
               (static_cast<std::uint64_t>(win) << 44) ^ op_id;
    }

    /// Fence assertion consistency: per (win, fence ordinal) the asserts
    /// the first rank passed; later ranks must match.
    std::vector<std::vector<std::uint64_t>> fence_calls_;  // [rank][win]
    std::unordered_map<std::uint64_t, unsigned> fence_expected_;

    /// GATS pairing: per (origin, target, win) counts of access epochs at
    /// the origin naming the target, and exposure epochs at the target
    /// naming the origin.
    std::unordered_map<std::uint64_t, std::int64_t> gats_balance_;
    [[nodiscard]] static std::uint64_t pair_key(net::Rank a, net::Rank b,
                                                std::uint32_t win) {
        return (static_cast<std::uint64_t>(a) << 44) ^
               (static_cast<std::uint64_t>(b) << 24) ^ win;
    }
};

}  // namespace nbe::check
