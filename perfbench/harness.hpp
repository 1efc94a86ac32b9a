// One simulated job of a benchmark workload, measured from outside the
// library: host time around the job and around every call the rank bodies
// make into rma::Rma, plus each layer's public stats accessors.
//
// The rank bodies never go through nbe::Window for timed calls. Every
// Window call parks the fiber in Process::charge_call, so host time taken
// across it includes every other rank's events. The Shim below does exactly
// what Window does -- MpiSection, charge_call, Rma::sweep, the Rma call,
// Request::wait -- so the simulated program is identical, and it can time
// the two core calls on their own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/window.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Workload { FenceStorm, Transactions, BulkRw, Diagnose };

[[nodiscard]] const char* to_string(Workload w) noexcept;
/// Returns false when `name` names no workload.
[[nodiscard]] bool parse_workload(const std::string& name, Workload& out);

/// Everything one job's simulated program is built from. The seed fixes
/// every input; nothing is read from the environment.
struct Params {
    Workload workload = Workload::FenceStorm;
    std::uint64_t seed = 1;
    int ranks = 256;
    /// Loop iterations per rank. fence_storm: put + fence; transactions:
    /// one update; bulk_rw: put + get + flush_all.
    int iters = 4;
    /// A round boundary (host time) is stamped every this many iterations
    /// finished anywhere in the job.
    int iters_per_round = 1;
    /// fence_storm: in each epoch one seeded rank works this long before
    /// its fence (Figure 5's Wait at Fence origin). 0 = no late rank.
    nbe::sim::Duration late_work = 0;
    /// diagnose: the job exports its trace here (obs::maybe_export numbers
    /// successive files); run_job checks and removes each export.
    std::string export_path;
};

/// The workload's pinned inputs at benchmark size for `seed`.
[[nodiscard]] Params workload_params(Workload w, std::uint64_t seed);

/// Deterministic per-layer counts of one job. Identical for equal Params,
/// whether or not the job was probed.
struct Counts {
    // sim
    std::uint64_t events = 0;
    std::uint64_t ring_pushes = 0;
    std::uint64_t overflow_pushes = 0;
    std::uint64_t queue_max_size = 0;
    std::uint64_t smallfn_heap_fallbacks = 0;
    // core (RmaStats summed over ranks; max_deferred_epochs is the max)
    std::uint64_t epochs_completed = 0;
    std::uint64_t epochs_deferred_at_open = 0;
    std::uint64_t max_deferred_epochs = 0;
    std::uint64_t lock_grants_held = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t dones_sent = 0;
    std::uint64_t epochs_aborted = 0;
    std::uint64_t ops_issued = 0;
    // net
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t credit_stalls = 0;
    std::uint64_t pin_hits = 0;
    std::uint64_t pin_misses = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t payload_bytes_copied = 0;
    std::uint64_t payload_borrows = 0;
    std::uint64_t payload_detach_copies = 0;
    std::uint64_t payload_buffers_created = 0;
    // rt
    std::uint64_t mpi_calls = 0;
    std::uint64_t protocol_errors = 0;
    // check
    std::uint64_t check_accesses = 0;
    std::uint64_t check_intervals_peak = 0;
    std::uint64_t check_conflicts = 0;
    std::uint64_t check_epoch_errors = 0;

    bool operator==(const Counts&) const = default;
};

/// Host-time spans a probed job keeps in memory.
struct Probe {
    std::vector<std::uint32_t> issue_ns;  ///< per Rma::post_op / i* call
    std::vector<std::uint32_t> sweep_ns;  ///< per Rma::sweep call
    /// Virtual ns each wait, blocking close or barrier blocked.
    std::vector<std::int64_t> wait_virtual_ns;
    /// Host time rank fibers ran (benchmark code + core calls), i.e. every
    /// stretch between a resume and the next park, less the untimed checks.
    std::int64_t fiber_ns = 0;
    std::vector<Clock::time_point> resumed;  ///< per rank
};

struct JobResult {
    // host time, less the benchmark's own input set-up and output checks
    double setup_s = 0;     ///< Job construction -> first timed round
    double wall_s = 0;      ///< first timed round -> end of ~Job
    double run_host_s = 0;  ///< Job::run
    double teardown_s = 0;  ///< ~Job (writes the export in diagnose)
    std::vector<double> round_ms;
    // virtual time (deterministic)
    nbe::sim::Time virtual_ns = 0;  ///< timed region, rank 0 start -> last finish
    nbe::sim::Time job_end_ns = 0;  ///< engine clock when the job ended
    double comm_pct = 0;
    Counts counts;
    // rma.* histograms (only when obs metrics are on)
    double deferral_ns_p50 = 0, deferral_ns_p90 = 0;
    double close_to_complete_ns_p50 = 0, close_to_complete_ns_p90 = 0;
    double op_transfer_ns_p50 = 0;
    double overlap_ratio_p50 = 0;
    // failures
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;  ///< exception text (deadlock, process failure)
    // diagnose export, checked and deleted after the job
    double trace_mb = 0;
    long trace_events = 0;  ///< -1: the export did not parse
    // present only when probed
    Probe probe;
};

/// Runs one job. `probed` keeps host-time spans around the core calls and
/// turns on the obs metrics registry (never the tracer).
[[nodiscard]] JobResult run_job(const Params& prm, bool probed);

/// Value at quantile q in [0, 1] of `v`, linearly interpolated; 0 if empty.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<double>(v[lo]) * (1 - frac) +
           static_cast<double>(v[hi]) * frac;
}

}  // namespace perfbench
