// Ties the benchmark's shim-driven rank bodies, at the benchmarked
// parameters, to committed results: they must reproduce the library's own
// entry points exactly.
//   * transactions at Figure 12's 256-rank point == apps::run_transactions
//     (duration_s and credit_stalls);
//   * fence_storm at 64/128/256 ranks x 4 rounds, without its late rank,
//     == BENCH_pr4.json's scale_ranks virtual_us_per_fence, and with it
//     every fence waits out the late rank's Figure 5 delay.
// Also checks that a probed job simulates exactly what an unprobed one does.
#include <cstdio>
#include <string>

#include "apps/scenarios.hpp"
#include "apps/transactions.hpp"
#include "harness.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

void transactions_matches_fig12() {
    nbe::apps::TransactionsParams tp;  // bench/fig12_transactions.cpp @ 256
    tp.ranks = 256;
    tp.mode = nbe::rt::Mode::NewNonblocking;
    tp.use_aaar = true;
    tp.updates_per_rank = 100;
    tp.payload_bytes = 16 * 1024;
    tp.slots = 2;
    tp.max_outstanding = 4;
    tp.ranks_per_node = 8;
    tp.tx_credits = 2;
    const auto want = nbe::apps::run_transactions(tp);

    const Params prm = workload_params(Workload::Transactions, tp.seed);
    const JobResult got = run_job(prm, false);
    char buf[160];
    std::snprintf(buf, sizeof buf, "transactions duration_s %.9f == %.9f",
                  nbe::sim::to_sec(got.virtual_ns), want.duration_s);
    expect(want.verified && nbe::sim::to_sec(got.virtual_ns) == want.duration_s, buf);
    std::snprintf(buf, sizeof buf, "transactions credit_stalls %llu == %llu",
                  static_cast<unsigned long long>(got.counts.credit_stalls),
                  static_cast<unsigned long long>(want.credit_stalls));
    expect(got.counts.credit_stalls == want.credit_stalls, buf);
    expect(got.failed == 0 && got.error.empty(), "transactions verified");
}

void fence_storm_matches_bench_pr4() {
    struct Point {
        int ranks;
        const char* virtual_us_per_fence;
    };
    for (const Point pt : {Point{64, "11.5838"}, Point{128, "19.7220"}, Point{256, "35.9948"}}) {
        Params prm = workload_params(Workload::FenceStorm, 1);
        prm.ranks = pt.ranks;
        prm.iters = 4;
        prm.late_work = 0;  // scale_ranks has no late rank
        const JobResult got = run_job(prm, false);
        char val[32];
        std::snprintf(val, sizeof val, "%.4f",
                      static_cast<double>(got.job_end_ns) / 1e3 / prm.iters);
        expect(std::string(val) == pt.virtual_us_per_fence && got.failed == 0,
               "fence_storm " + std::to_string(pt.ranks) + " ranks: " + val +
                   " us/fence == " + pt.virtual_us_per_fence);
    }
}

// The benchmarked fence_storm: with a late rank in every epoch, every fence
// waits for that rank's Figure 5 work.
void fence_storm_waits_at_fence() {
    const Params prm = workload_params(Workload::FenceStorm, 1);
    const JobResult got = run_job(prm, false);
    const nbe::sim::Time floor = prm.iters * nbe::apps::kDelay;
    expect(got.failed == 0 && got.error.empty() && got.virtual_ns > floor,
           "fence_storm 256 ranks: " + std::to_string(got.virtual_ns) + " ns > " +
               std::to_string(prm.iters) + " late-rank delays");
}

void probe_is_invisible() {
    for (Workload w : {Workload::FenceStorm, Workload::Transactions, Workload::BulkRw}) {
        Params prm = workload_params(w, 7);
        prm.ranks = 32;
        const JobResult a = run_job(prm, false);
        const JobResult b = run_job(prm, true);
        expect(a.error.empty() && a.failed == 0 && a.virtual_ns == b.virtual_ns &&
                   a.comm_pct == b.comm_pct && a.counts == b.counts,
               std::string(to_string(w)) + ": probed job simulates the same");
    }
}

}  // namespace

int main() {
    transactions_matches_fig12();
    fence_storm_matches_bench_pr4();
    fence_storm_waits_at_fence();
    probe_is_invisible();
    return failures == 0 ? 0 : 1;
}
