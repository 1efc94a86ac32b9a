// Benchmark program: runs one workload's job repeatedly for a given number of
// host seconds and prints every metric by name with its unit. The last line
// of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
// With --trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's probes off and scaled to a reference host speed (SpeedRef).
// With --trace 1 they are the per-layer ones, from probed jobs interleaved
// with unprobed jobs of the same seed; the two must agree on every
// simulated result.
//
//   nbe_perfbench --workload fence_storm|transactions|bulk_rw|diagnose
//                 --seed N --seconds S --trace 0|1 --scratch DIR
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

// Refuse builds whose host times mean nothing.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif

constexpr std::size_t kMinJobs = 3;  // untraced runs: medians of >= 3 jobs

/// Host-speed reference: a pointer chase around one random cycle through
/// 8 MiB, timed before every job. It shares no code with the simulator, but
/// like the simulator it slows when other processes on the host compete
/// for the caches and memory, which moves host times by 10-30 % between
/// runs of the same job. End-to-end host times are scaled by
/// kRefStepNs / (median ns per step over the run): they are host seconds
/// on a host whose chase step takes kRefStepNs.
class SpeedRef {
public:
    static constexpr double kRefStepNs = 100.0;
    static constexpr std::size_t kSlots = std::size_t{1} << 21;
    static constexpr double kBufferMiB =
        static_cast<double>(kSlots * sizeof(std::uint32_t)) / (1 << 20);

    SpeedRef() : next_(kSlots) {
        std::vector<std::uint32_t> order(next_.size());
        std::iota(order.begin(), order.end(), 0u);
        std::mt19937_64 gen(1);  // fixed: every run chases the same cycle
        std::shuffle(order.begin(), order.end(), gen);
        for (std::size_t i = 0; i < order.size(); ++i) {
            next_[order[i]] = order[(i + 1) % order.size()];
        }
    }
    /// Times one chase; returns its ns per step.
    double sample() {
        const auto t0 = Clock::now();
        std::uint32_t at = 0;
        for (int k = 0; k < kSteps; ++k) at = next_[at];
        sink_ = at;
        const auto ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        return ns / kSteps;
    }

private:
    static constexpr int kSteps = 100000;
    std::vector<std::uint32_t> next_;
    volatile std::uint32_t sink_ = 0;
};

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

class Report {
public:
    void add(std::string name, double value, const char* unit) {
        metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0.0, unit});
    }
    void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
        for (const auto& m : metrics_) {
            std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                        metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
        }
        std::printf("}}\n");
    }

private:
    std::vector<Metric> metrics_;
};

double elapsed_s(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// True once `done` loop passes have run for `elapsed` seconds and another
/// pass of average length would end after `seconds`: a run stays within
/// the time it was given.
bool out_of_time(std::size_t done, double elapsed, double seconds) {
    return elapsed * static_cast<double>(done + 1) / static_cast<double>(done) > seconds;
}

double median_of(const std::vector<JobResult>& jobs, double JobResult::*field) {
    std::vector<double> v;
    for (const auto& j : jobs) v.push_back(j.*field);
    return quantile(v, 0.5);
}

/// Peak RSS of this process, in MiB.
double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Jobs of one configuration that must all produce the same simulation.
bool same_simulation(const JobResult& a, const JobResult& b) {
    return a.error.empty() && b.error.empty() && a.virtual_ns == b.virtual_ns &&
           a.comm_pct == b.comm_pct && a.counts == b.counts;
}

bool all_same(const std::vector<JobResult>& jobs, const JobResult& ref) {
    for (const auto& j : jobs) {
        if (!same_simulation(j, ref)) return false;
    }
    return true;
}

struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    void add(const std::vector<JobResult>& jobs) {
        for (const auto& j : jobs) {
            attempted += j.attempted;
            failed += j.failed;
            if (!j.error.empty()) std::fprintf(stderr, "job failed: %s\n", j.error.c_str());
        }
    }
};

int run_end_to_end(const Params& prm, double seconds) {
    SpeedRef speed;
    std::vector<JobResult> jobs;
    std::vector<double> step_ns;
    const auto t0 = Clock::now();
    do {
        step_ns.push_back(speed.sample());
        jobs.push_back(run_job(prm, false));
    } while (jobs.size() < kMinJobs || !out_of_time(jobs.size(), elapsed_s(t0), seconds));
    std::vector<double> rounds;
    for (const auto& j : jobs) rounds.insert(rounds.end(), j.round_ms.begin(), j.round_ms.end());

    const JobResult& ref = jobs.front();
    Totals tot;
    tot.add(jobs);
    const bool deterministic = all_same(jobs, ref);
    if (!deterministic) std::fprintf(stderr, "jobs of one seed disagree\n");

    const double ref_ns = quantile(step_ns, 0.5);
    const double scale = SpeedRef::kRefStepNs / ref_ns;
    std::printf("jobs %zu, round samples %zu, unscaled wall_s of each job:", jobs.size(),
                rounds.size());
    for (const auto& j : jobs) std::printf(" %.3f", j.wall_s);
    std::printf("\nhost speed: chase %.2f ns/step (reference %.0f), host times x %.4f; "
                "unscaled wall_s %.6f setup_s %.6f\n",
                ref_ns, SpeedRef::kRefStepNs, scale, median_of(jobs, &JobResult::wall_s),
                median_of(jobs, &JobResult::setup_s));
    Report rep;
    rep.add("wall_s", scale * median_of(jobs, &JobResult::wall_s), "s");
    rep.add("setup_s", scale * median_of(jobs, &JobResult::setup_s), "s");
    rep.add("round_ms_p50", scale * quantile(rounds, 0.5), "ms");
    rep.add("round_ms_p90", scale * quantile(rounds, 0.9), "ms");
    rep.add("peak_rss_mb", peak_rss_mb() - SpeedRef::kBufferMiB, "MB");
    rep.add("virtual_s", static_cast<double>(ref.virtual_ns) / 1e9, "s");
    rep.add("comm_pct", ref.comm_pct, "%");
    rep.print(deterministic && tot.failed == 0, tot.attempted, tot.failed);
    return 0;
}

int run_per_layer(const Params& prm, double seconds) {
    // Unprobed and probed jobs of the same seed, interleaved so both see
    // the same host conditions. diagnose also runs plain transactions jobs
    // as the base of its overhead ratio.
    const bool diagnose = prm.workload == Workload::Diagnose;
    Params base = workload_params(Workload::Transactions, prm.seed);
    SpeedRef speed;
    std::vector<JobResult> plain, probed, tx_base;
    std::vector<double> step_ns;
    const auto t0 = Clock::now();
    do {
        step_ns.push_back(speed.sample());
        plain.push_back(run_job(prm, false));
        probed.push_back(run_job(prm, true));
        if (diagnose) tx_base.push_back(run_job(base, false));
    } while (!out_of_time(plain.size(), elapsed_s(t0), seconds));

    Totals tot;
    tot.add(plain);
    tot.add(probed);
    tot.add(tx_base);
    const JobResult& ref = plain.front();
    const bool faithful = all_same(plain, ref) && all_same(probed, ref);
    if (!faithful) std::fprintf(stderr, "probed and unprobed jobs disagree\n");

    std::vector<double> rounds;
    for (const auto& j : plain) rounds.insert(rounds.end(), j.round_ms.begin(), j.round_ms.end());
    std::vector<std::uint32_t> issue, sweep;
    std::vector<double> issue_s, sweep_s, loop_s, run_s, body_s;
    for (const auto& j : probed) {
        issue.insert(issue.end(), j.probe.issue_ns.begin(), j.probe.issue_ns.end());
        sweep.insert(sweep.end(), j.probe.sweep_ns.begin(), j.probe.sweep_ns.end());
        double is = 0, ss = 0;
        for (auto v : j.probe.issue_ns) is += v;
        for (auto v : j.probe.sweep_ns) ss += v;
        issue_s.push_back(is / 1e9);
        sweep_s.push_back(ss / 1e9);
        const double fiber_s = static_cast<double>(j.probe.fiber_ns) / 1e9;
        loop_s.push_back(j.run_host_s - fiber_s);
        body_s.push_back(fiber_s - (is + ss) / 1e9);
        run_s.push_back(j.run_host_s);
    }
    const JobResult& pr = probed.front();
    const Counts& c = ref.counts;
    const double events = static_cast<double>(c.events);
    const double pin_lookups = static_cast<double>(c.pin_hits + c.pin_misses);
    const double wall_plain = median_of(plain, &JobResult::wall_s);
    const double wall_probed = median_of(probed, &JobResult::wall_s);
    const double wall_tx = diagnose ? median_of(tx_base, &JobResult::wall_s) : 0.0;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };

    std::printf("jobs %zu unprobed + %zu probed%s\n", plain.size(), probed.size(),
                diagnose ? " + transactions base" : "");
    Report rep;
    rep.add("sim.events", events, "count");
    rep.add("sim.host_ns_per_event", ratio(1e9 * quantile(run_s, 0.5), events), "ns");
    rep.add("sim.loop_host_s", quantile(loop_s, 0.5), "s");
    rep.add("sim.queue.ring_pushes", n(c.ring_pushes), "count");
    rep.add("sim.queue.overflow_pushes", n(c.overflow_pushes), "count");
    rep.add("sim.queue.max_size", n(c.queue_max_size), "count");
    rep.add("sim.smallfn_heap_fallbacks", n(c.smallfn_heap_fallbacks), "count");
    rep.add("core.issue_calls", n(pr.probe.issue_ns.size()), "count");
    rep.add("core.issue_host_ns_p50", quantile(issue, 0.5), "ns");
    rep.add("core.issue_host_ns_p90", quantile(issue, 0.9), "ns");
    rep.add("core.issue_host_s", quantile(issue_s, 0.5), "s");
    rep.add("core.sweep_calls", n(pr.probe.sweep_ns.size()), "count");
    rep.add("core.sweep_host_ns_p50", quantile(sweep, 0.5), "ns");
    rep.add("core.sweep_host_ns_p90", quantile(sweep, 0.9), "ns");
    rep.add("core.sweep_host_s", quantile(sweep_s, 0.5), "s");
    rep.add("core.epochs_completed", n(c.epochs_completed), "count");
    rep.add("core.epochs_deferred_at_open", n(c.epochs_deferred_at_open), "count");
    rep.add("core.max_deferred_epochs", n(c.max_deferred_epochs), "count");
    rep.add("core.lock_grants_held", n(c.lock_grants_held), "count");
    rep.add("core.sweeps", n(c.sweeps), "count");
    rep.add("core.dones_sent", n(c.dones_sent), "count");
    rep.add("core.epochs_aborted", n(c.epochs_aborted), "count");
    rep.add("core.epoch_deferral_ns_p50", pr.deferral_ns_p50, "ns");
    rep.add("core.epoch_deferral_ns_p90", pr.deferral_ns_p90, "ns");
    rep.add("core.epoch_close_to_complete_ns_p50", pr.close_to_complete_ns_p50, "ns");
    rep.add("core.epoch_close_to_complete_ns_p90", pr.close_to_complete_ns_p90, "ns");
    rep.add("core.op_transfer_ns_p50", pr.op_transfer_ns_p50, "ns");
    rep.add("core.epoch_overlap_ratio_p50", pr.overlap_ratio_p50, "ratio");
    rep.add("net.packets", n(c.packets), "count");
    rep.add("net.bytes", n(c.bytes), "B");
    rep.add("net.packets_per_op", ratio(n(c.packets), n(c.ops_issued)), "ratio");
    rep.add("net.ops_issued", n(c.ops_issued), "count");
    rep.add("net.credit_stalls", n(c.credit_stalls), "count");
    rep.add("net.pin_hit_ratio", ratio(n(c.pin_hits), pin_lookups), "ratio");
    rep.add("net.pin_lookups", pin_lookups, "count");
    rep.add("net.payload.bytes_copied", n(c.payload_bytes_copied), "B");
    rep.add("net.payload.borrows", n(c.payload_borrows), "count");
    rep.add("net.payload.detach_copies", n(c.payload_detach_copies), "count");
    rep.add("net.payload.buffers_created", n(c.payload_buffers_created), "count");
    rep.add("net.retransmits", n(c.retransmits), "count");
    rep.add("rt.mpi_calls", n(c.mpi_calls), "count");
    rep.add("rt.wait_virtual_ns_p50", quantile(pr.probe.wait_virtual_ns, 0.5), "ns");
    rep.add("rt.wait_virtual_ns_p90", quantile(pr.probe.wait_virtual_ns, 0.9), "ns");
    rep.add("rt.protocol_errors", n(c.protocol_errors), "count");
    rep.add("check.accesses", n(c.check_accesses), "count");
    rep.add("check.intervals_peak", n(c.check_intervals_peak), "count");
    rep.add("check.conflicts", n(c.check_conflicts), "count");
    rep.add("check.epoch_errors", n(c.check_epoch_errors), "count");
    rep.add("obs.trace_mb", ref.trace_mb, "MB");
    rep.add("obs.trace_events", static_cast<double>(ref.trace_events), "count");
    rep.add("obs.export_host_s", median_of(plain, &JobResult::teardown_s), "s");
    rep.add("diagnose_overhead_ratio", ratio(diagnose ? wall_plain : 0.0, wall_tx), "ratio");
    rep.add("diagnose_overhead.diagnose_wall_s", diagnose ? wall_plain : 0.0, "s");
    rep.add("diagnose_overhead.transactions_wall_s", wall_tx, "s");
    rep.add("trace.overhead_ratio", ratio(wall_probed, wall_plain), "ratio");
    rep.add("trace.wall_s_probed", wall_probed, "s");
    rep.add("trace.wall_s_unprobed", wall_plain, "s");
    rep.add("bench.body_host_s", quantile(body_s, 0.5), "s");
    rep.add("bench.round_samples", n(rounds.size()), "count");
    rep.add("bench.ref_step_ns", quantile(step_ns, 0.5), "ns");
    rep.add("fail_ratio", ratio(n(tot.failed), n(tot.attempted)), "ratio");
    rep.print(faithful && tot.failed == 0, tot.attempted, tot.failed);
    return 0;
}

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

int usage() {
    std::fprintf(stderr,
                 "usage: nbe_perfbench --workload fence_storm|transactions|bulk_rw|diagnose "
                 "--seed N --seconds S --trace 0|1 --scratch DIR\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (!kOptimizedBuild) {
        std::fprintf(stderr, "nbe_perfbench: refusing a non-Release or sanitizer build\n");
        return 2;
    }
    std::string workload, scratch;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* v = argv[i + 1];
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--scratch") {
            scratch = v;
        } else if (flag == "--seed") {
            if (!parse_u64(v, seed)) return usage();
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parse_u64(v, seconds)) return usage();
        } else if (flag == "--trace") {
            if (!parse_u64(v, trace)) return usage();
        } else {
            return usage();
        }
    }
    Workload w{};
    if (argc % 2 == 0 || !parse_workload(workload, w) || !have_seed || seconds == 0 ||
        trace > 1 || scratch.empty()) {
        return usage();
    }
    // The library reads these at run time; the JobConfig pins cover the
    // rest, so the caller's environment cannot change what is measured.
    for (const char* var : {"NBE_SIM_BACKEND", "NBE_SIM_QUEUE", "NBE_CHECK", "NBE_RMA_TRACE",
                            "NBE_SIM_STACK_KB"}) {
        unsetenv(var);
    }

    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1;
    std::printf("workload %s seed %llu seconds %llu trace %llu\n", workload.c_str(),
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(seconds),
                static_cast<unsigned long long>(trace));
    std::printf("compiler %s, nproc %ld, loadavg %.2f %.2f %.2f\n", __VERSION__,
                sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2]);

    Params prm = workload_params(w, seed);
    if (w == Workload::Diagnose) {
        std::filesystem::create_directories(scratch);
        prm.export_path = scratch + "/trace.json";
    }
    std::fflush(stdout);
    const double s = static_cast<double>(seconds);
    return trace == 1 ? run_per_layer(prm, s) : run_end_to_end(prm, s);
}
