#include "harness.hpp"

#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>

#include "apps/scenarios.hpp"
#include "net/payload.hpp"
#include "sim/callback.hpp"
#include "sim/rng.hpp"
#include "trace_check.hpp"

namespace perfbench {

namespace {

namespace rma = nbe::rma;
namespace rt = nbe::rt;
namespace sim = nbe::sim;
using nbe::Proc;
using nbe::Rank;
using nbe::Request;
using nbe::Window;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::size_t idx(Rank r) { return static_cast<std::size_t>(r); }

// Independent deterministic input streams per (seed, rank, purpose).
enum Stream : std::uint64_t {
    kLateStream = 1,
    kBulkStream = 2,
    kPatternStream = 3,
    kOffsetStream = 4,
};

std::uint64_t stream_key(std::uint64_t seed, Rank r, Stream s) {
    sim::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(s) << 56) ^
                       (static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL));
    return sm.next();
}

/// Fills `n` bytes with the pseudo-random pattern named by `key`.
void fill_pattern(std::byte* dst, std::size_t n, std::uint64_t key) {
    sim::SplitMix64 sm(key);
    for (std::size_t i = 0; i < n; i += 8) {
        const std::uint64_t w = sm.next();
        std::memcpy(dst + i, &w, std::min<std::size_t>(8, n - i));
    }
}

std::uint64_t pattern_key(std::uint64_t seed, Rank r, int round) {
    return stream_key(seed, r, kPatternStream) + static_cast<std::uint64_t>(round);
}

/// State shared by all rank bodies of one job. The simulator runs one
/// fiber at a time on one OS thread, so plain members suffice.
struct JobState {
    const Params& prm;
    Probe* probe;  ///< null unless the job is probed
    std::vector<Clock::time_point> stamps;  ///< round boundaries
    std::vector<sim::Time> t_start, t_end;
    std::vector<sim::Duration> mpi_start, mpi_end;
    std::vector<std::uint64_t> counter;  ///< transactions: final counters
    std::uint64_t failed = 0;    ///< non-OK statuses + verification mismatches
    std::uint64_t ops_done = 0;  ///< core issue calls that returned
    std::uint64_t iters_done = 0;  ///< iterations finished job-wide
    Clock::duration excluded{};  ///< host time spent in untimed()

    JobState(const Params& p, Probe* pr)
        : prm(p),
          probe(pr),
          t_start(idx(p.ranks)),
          t_end(idx(p.ranks)),
          mpi_start(idx(p.ranks)),
          mpi_end(idx(p.ranks)),
          counter(idx(p.ranks)) {}

    /// The job's host clock: it stands still while the benchmark generates
    /// inputs or checks outputs, so every host time reported leaves that
    /// work out.
    Clock::time_point host_now() const { return Clock::now() - excluded; }
    template <class F>
    void untimed(F&& fn) {
        const auto t0 = Clock::now();
        fn();
        excluded += Clock::now() - t0;
    }

    /// Runs `fn`, which may park rank `r`'s fiber. A probe books the host
    /// time the fiber ran since it was last resumed.
    template <class F>
    void park(Rank r, F&& fn) {
        if (probe) probe->fiber_ns += ns_between(probe->resumed[idx(r)], host_now());
        fn();
        if (probe) probe->resumed[idx(r)] = host_now();
    }

    void begin_timed(Proc& p) {
        t_start[idx(p.rank())] = p.now();
        mpi_start[idx(p.rank())] = p.stats().time_in_mpi;
        if (p.rank() == 0) stamps.push_back(host_now());
    }
    /// Some rank finished an iteration. Counting job-wide progress instead
    /// of rank 0's keeps a round's length from hinging on what the seed gave
    /// rank 0 (its targets, or whether it is a late rank). Host stamps only:
    /// nothing enters the simulation.
    void iter_done() {
        if (++iters_done % static_cast<std::uint64_t>(prm.iters_per_round) == 0) {
            stamps.push_back(host_now());
        }
    }
    void end_timed(Proc& p) {
        t_end[idx(p.rank())] = p.now();
        mpi_end[idx(p.rank())] = p.stats().time_in_mpi;
    }
};

/// Drives rma::Rma exactly as nbe::Window does (window.cpp), call for call,
/// so the simulated program is the same; with a probe it also times
/// Rma::sweep and the Rma issue call, the two calls that run core code
/// without parking.
class Shim {
public:
    Shim(Proc& p, std::uint32_t win, JobState& st)
        : p_(p), rma_(p.rma()), r_(p.rank()), win_(win), st_(st) {}

    void put(const void* src, std::size_t n, Rank t, std::size_t disp) {
        rt::MpiSection sec(p_);
        call([&] {
            return rma_.post_op(r_, win_, rma::OpKind::Put, t, disp, src,
                                nullptr, n, rma::TypeId::Byte,
                                rma::ReduceOp::Replace, false);
        });
    }
    void get(void* dst, std::size_t n, Rank t, std::size_t disp) {
        rt::MpiSection sec(p_);
        call([&] {
            return rma_.post_op(r_, win_, rma::OpKind::Get, t, disp, nullptr,
                                dst, n, rma::TypeId::Byte,
                                rma::ReduceOp::Replace, false);
        });
    }
    /// MPI_Accumulate(MPI_SUM) of one uint64 at byte offset `disp`.
    void add_u64(const std::uint64_t* v, Rank t, std::size_t disp) {
        rt::MpiSection sec(p_);
        call([&] {
            return rma_.post_op(r_, win_, rma::OpKind::Accumulate, t, disp, v,
                                nullptr, 1,
                                rma::TypeIdOf<std::uint64_t>::value,
                                rma::ReduceOp::Sum, false);
        });
    }
    Request ilock(rma::LockType type, Rank t) {
        rt::MpiSection sec(p_);
        return call([&] { return rma_.ilock(r_, win_, type, t); });
    }
    Request iunlock(Rank t) {
        rt::MpiSection sec(p_);
        return call([&] { return rma_.iunlock(r_, win_, t); });
    }
    void lock_all() {
        rt::MpiSection sec(p_);
        call([&] { return rma_.ilock_all(r_, win_); });
    }
    void unlock_all() {
        rt::MpiSection sec(p_);
        Request r = call([&] { return rma_.iunlock_all(r_, win_); });
        block(r);
    }
    void flush_all() {
        rt::MpiSection sec(p_);
        Request r = call([&] { return rma_.iflush(r_, win_, -1, false); });
        block(r);
    }
    void fence(unsigned asserts = 0) {
        rt::MpiSection sec(p_);
        Request r = call([&] { return rma_.ifence(r_, win_, asserts); });
        block(r);
    }
    void compute(sim::Duration d) {
        st_.park(r_, [&] { p_.compute(d); });
    }
    void wait(Request& r) {
        rt::MpiSection sec(p_);
        block(r);
    }
    void barrier() {
        const sim::Time t0 = p_.now();
        st_.park(r_, [&] { p_.barrier(); });
        note_wait(t0);
    }

private:
    // Window::enter() + the Rma call.
    template <class F>
    Request call(F&& issue) {
        st_.park(r_, [&] { p_.charge_call(); });
        Request out;
        if (Probe* pr = st_.probe) {
            const auto t0 = Clock::now();
            rma_.sweep(r_);
            const auto t1 = Clock::now();
            out = issue();
            const auto t2 = Clock::now();
            pr->sweep_ns.push_back(static_cast<std::uint32_t>(ns_between(t0, t1)));
            pr->issue_ns.push_back(static_cast<std::uint32_t>(ns_between(t1, t2)));
        } else {
            rma_.sweep(r_);
            out = issue();
        }
        ++st_.ops_done;
        return out;
    }
    void block(Request& r) {
        const sim::Time t0 = p_.now();
        nbe::Status s = nbe::NBE_SUCCESS;
        st_.park(r_, [&] { s = r.wait(p_.sim_process()); });
        if (s != nbe::NBE_SUCCESS) ++st_.failed;
        note_wait(t0);
    }
    void note_wait(sim::Time t0) {
        if (Probe* pr = st_.probe) pr->wait_virtual_ns.push_back(p_.now() - t0);
    }

    Proc& p_;
    rma::Rma& rma_;
    Rank r_;
    std::uint32_t win_;
    JobState& st_;
};

// ------------------------------------------------------------ fence_storm

/// fence_storm's late rank in epoch `round`; the same on every rank.
Rank late_rank(std::uint64_t seed, int round, int n) {
    sim::Xoshiro256 pick(stream_key(seed, 0, kLateStream) + static_cast<std::uint64_t>(round));
    return static_cast<Rank>(pick.below(static_cast<std::uint64_t>(n)));
}

// The scale_ranks fence microloop: each round every rank puts 8 B to its
// right neighbour and calls fence. In each round one seeded rank is Figure
// 5's Wait at Fence origin in its blocking form: it works `late_work`
// before calling fence, so every other rank waits at the fence
// (apps::wait_at_fence_target_us).
void fence_storm(Proc& p, JobState& st) {
    const Params& prm = st.prm;
    const Rank me = p.rank();
    const int n = p.size();
    Window win;
    st.park(me, [&] { win = p.create_window(4096); });
    Shim s(p, win.id(), st);

    s.fence();  // warm-up: opens the first epoch
    st.begin_timed(p);
    for (int i = 0; i < prm.iters; ++i) {
        const std::uint64_t v = pattern_key(prm.seed, me, i);
        s.put(&v, sizeof v, (me + 1) % n, 0);
        if (prm.late_work > 0 && me == late_rank(prm.seed, i, n)) s.compute(prm.late_work);
        s.fence();
        st.iter_done();
    }
    s.fence(rma::kNoSucceed);
    st.end_timed(p);

    const Rank left = (me + n - 1) % n;
    if (win.read<std::uint64_t>(0) != pattern_key(prm.seed, left, prm.iters - 1)) {
        ++st.failed;
    }
}

// ----------------------------------------------------------- transactions

constexpr std::size_t kCounterBytes = 8;
constexpr std::size_t kTxPayload = 16 * 1024;
constexpr std::size_t kTxSlots = 2;
constexpr std::size_t kTxMaxOutstanding = 4;

// The Figure 12 kernel (apps::run_transactions at the 256-rank point):
// each update is an exclusive lock, a 16 KiB put and an 8 B accumulate,
// with at most 4 epochs outstanding.
void transactions(Proc& p, JobState& st) {
    const Params& prm = st.prm;
    const Rank me = p.rank();
    const auto n = static_cast<std::uint64_t>(p.size());
    nbe::WinInfo info;
    info.access_after_access = true;
    Window win;
    st.park(me, [&] {
        win = p.create_window(kCounterBytes + kTxSlots * kTxPayload, info);
    });
    Shim s(p, win.id(), st);
    const std::vector<std::byte> payload(kTxPayload, std::byte{0xEE});
    // Same per-rank stream as rt::World's rank generators: for equal seeds
    // the update sequence is apps::run_transactions'.
    sim::Xoshiro256 rng(prm.seed ^
                        (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(me + 1)));

    s.barrier();  // warm-up
    st.begin_timed(p);
    std::deque<Request> outstanding;
    const std::uint64_t one = 1;
    auto retire = [&] {
        s.wait(outstanding.front());
        outstanding.pop_front();
        st.iter_done();
    };
    for (int i = 0; i < prm.iters; ++i) {
        const auto target = static_cast<Rank>(rng.below(n));
        const std::size_t slot = rng.below(kTxSlots);
        s.ilock(rma::LockType::Exclusive, target);
        s.put(payload.data(), payload.size(), target, kCounterBytes + slot * kTxPayload);
        s.add_u64(&one, target, 0);
        outstanding.push_back(s.iunlock(target));
        while (outstanding.size() > kTxMaxOutstanding) retire();
    }
    while (!outstanding.empty()) retire();
    st.end_timed(p);
    s.barrier();  // every update is applied everywhere
    st.counter[idx(me)] = win.read<std::uint64_t>(0);
}

// ---------------------------------------------------------------- bulk_rw

constexpr std::size_t kPutRegion = 64 * 1024;   // written by the left rank
constexpr std::size_t kGetRegion = 128 * 1024;  // read-only source for gets
constexpr std::size_t kBulkSizes[] = {4096, 8192, 12288, 16384, 32768, 65536};
constexpr int kGetSourceRound = -1;
constexpr int kPutSourceRound = -2;

struct BulkRound {
    std::size_t put_bytes = 0;
    std::size_t get_bytes = 0;
    std::size_t get_off = 0;  ///< within the get region, 8-byte aligned
};

BulkRound bulk_round(std::uint64_t seed, Rank r, int round) {
    // Each block of kKinds iterations puts and gets every size once, in seeded
    // orders: the seed changes the order and the offsets, never the bytes
    // a job moves.
    constexpr std::size_t kKinds = std::size(kBulkSizes);
    const auto k = static_cast<std::size_t>(round);
    sim::Xoshiro256 order(stream_key(seed, r, kBulkStream) + k / kKinds);
    std::size_t put[kKinds], get[kKinds];
    for (std::size_t i = 0; i < kKinds; ++i) put[i] = get[i] = i;
    for (std::size_t* perm : {put, get}) {
        for (std::size_t i = kKinds - 1; i > 0; --i) std::swap(perm[i], perm[order.below(i + 1)]);
    }
    BulkRound b;
    b.put_bytes = kBulkSizes[put[k % kKinds]];
    b.get_bytes = kBulkSizes[get[k % kKinds]];
    sim::Xoshiro256 off(stream_key(seed, r, kOffsetStream) + k);
    b.get_off = 8 * off.below((kGetRegion - b.get_bytes) / 8 + 1);
    return b;
}

// One lock_all session: each round puts to rank+1 and gets from rank-1,
// in disjoint regions, then flushes. Sizes straddle the 16 KiB zero-copy
// threshold. Generating and comparing bytes is untimed, so the host times
// cover the datapath's copies and not the benchmark's.
void bulk_rw(Proc& p, JobState& st) {
    const Params& prm = st.prm;
    const Rank me = p.rank();
    const int n = p.size();
    const Rank right = (me + 1) % n;
    const Rank left = (me + n - 1) % n;
    Window win;
    st.park(me, [&] { win = p.create_window(kPutRegion + kGetRegion); });
    Shim s(p, win.id(), st);
    std::vector<std::byte> left_source(kGetRegion), put_buf(kPutRegion), get_buf(kPutRegion);
    st.untimed([&] {
        fill_pattern(win.base() + kPutRegion, kGetRegion,
                     pattern_key(prm.seed, me, kGetSourceRound));
        fill_pattern(left_source.data(), kGetRegion,
                     pattern_key(prm.seed, left, kGetSourceRound));
        fill_pattern(put_buf.data(), kPutRegion, pattern_key(prm.seed, me, kPutSourceRound));
    });

    s.barrier();  // warm-up: every get source is initialised
    s.lock_all();
    st.begin_timed(p);
    for (int i = 0; i < prm.iters; ++i) {
        const BulkRound b = bulk_round(prm.seed, me, i);
        // Iteration i's put is the source pattern stamped with i, so the
        // final check sees the last put and not an earlier one.
        const std::uint64_t stamp = pattern_key(prm.seed, me, i);
        std::memcpy(put_buf.data(), &stamp, sizeof stamp);
        s.put(put_buf.data(), b.put_bytes, right, 0);
        s.get(get_buf.data(), b.get_bytes, left, kPutRegion + b.get_off);
        s.flush_all();
        st.untimed([&] {
            if (std::memcmp(get_buf.data(), left_source.data() + b.get_off, b.get_bytes) != 0) {
                ++st.failed;
            }
        });
        st.iter_done();
    }
    s.unlock_all();
    st.end_timed(p);
    s.barrier();  // the left rank's last put is applied here

    st.untimed([&] {
        const BulkRound last = bulk_round(prm.seed, left, prm.iters - 1);
        std::vector<std::byte> want(kPutRegion);
        fill_pattern(want.data(), want.size(), pattern_key(prm.seed, left, kPutSourceRound));
        const std::uint64_t stamp = pattern_key(prm.seed, left, prm.iters - 1);
        std::memcpy(want.data(), &stamp, sizeof stamp);
        if (std::memcmp(win.base(), want.data(), last.put_bytes) != 0) ++st.failed;
    });
}

// ------------------------------------------------------------------- jobs

using Body = void (*)(Proc&, JobState&);

Body body_for(Workload w) {
    switch (w) {
        case Workload::FenceStorm: return fence_storm;
        case Workload::Transactions:
        case Workload::Diagnose: return transactions;
        case Workload::BulkRw: return bulk_rw;
    }
    return fence_storm;
}

/// Core issue calls the job's rank bodies make.
std::uint64_t planned_ops(const Params& prm) {
    const auto n = static_cast<std::uint64_t>(prm.ranks);
    const auto iters = static_cast<std::uint64_t>(prm.iters);
    switch (prm.workload) {
        case Workload::FenceStorm: return n * (2 * iters + 2);
        case Workload::Transactions:
        case Workload::Diagnose: return n * 4 * iters;
        case Workload::BulkRw: return n * (3 * iters + 2);
    }
    return 0;
}

rt::JobConfig job_config(const Params& prm, bool probed) {
    const bool diagnose = prm.workload == Workload::Diagnose;
    rt::JobConfig cfg;
    cfg.ranks = prm.ranks;
    cfg.mode = rt::Mode::NewNonblocking;
    cfg.seed = prm.seed;
    // Pinned, so NBE_SIM_BACKEND / NBE_SIM_QUEUE / NBE_CHECK cannot change
    // what is measured.
    cfg.sim_backend = sim::Engine::Backend::Fibers;
    cfg.sim_queue = sim::EventQueue::Kind::Calendar;
    cfg.check = diagnose;
    cfg.obs = nbe::obs::ObsConfig{};
    cfg.obs.trace = diagnose;
    cfg.obs.metrics = diagnose || probed;
    cfg.fabric = nbe::net::FabricConfig{};
    if (prm.workload == Workload::Transactions || diagnose) {
        // Figure 12's 256-rank point (bench/fig12_transactions.cpp).
        cfg.fabric.ranks_per_node = 8;
        cfg.fabric.tx_credits = 2;
    }
    return cfg;
}

void read_counts(nbe::Job& job, int ranks, Counts& c) {
    rt::World& world = job.world();
    const sim::Engine& eng = world.engine();
    c.events = eng.events_executed();
    c.ring_pushes = eng.queue_stats().ring_pushes;
    c.overflow_pushes = eng.queue_stats().overflow_pushes;
    c.queue_max_size = eng.queue_stats().max_size;
    c.smallfn_heap_fallbacks = sim::smallfn_heap_fallbacks();
    for (Rank r = 0; r < ranks; ++r) {
        const rma::RmaStats& s = job.rma().stats(r);
        c.epochs_completed += s.epochs_completed;
        c.epochs_deferred_at_open += s.epochs_deferred_at_open;
        c.max_deferred_epochs = std::max(c.max_deferred_epochs, s.max_deferred_epochs);
        c.lock_grants_held += s.lock_grants_held;
        c.sweeps += s.sweeps;
        c.dones_sent += s.dones_sent;
        c.epochs_aborted += s.epochs_aborted;
        c.ops_issued += s.ops_issued;
        c.protocol_errors += s.protocol_errors;
        const rt::RankStats& rs = world.stats(r);
        c.mpi_calls += rs.mpi_calls;
        c.protocol_errors += rs.protocol_errors;
    }
    const auto& fs = world.fabric().stats();
    c.packets = fs.packets_sent;
    c.bytes = fs.bytes_sent;
    c.credit_stalls = fs.credit_stalls;
    c.pin_hits = fs.pin_hits;
    c.pin_misses = fs.pin_misses;
    c.retransmits = fs.retransmits;
    // World construction zeroes the process-wide payload counters, so these
    // are this job's deltas.
    const auto& ps = nbe::net::payload_pool_stats();
    c.payload_bytes_copied = ps.bytes_copied;
    c.payload_borrows = ps.borrows;
    c.payload_detach_copies = ps.detach_copies;
    c.payload_buffers_created = ps.buffers_created;
    if (const auto* ck = world.checker()) {
        c.check_accesses = ck->stats().accesses;
        c.check_intervals_peak = ck->stats().intervals_peak;
        c.check_conflicts = ck->stats().conflicts;
        c.check_epoch_errors = ck->stats().epoch_errors;
    }
}

void read_histograms(nbe::Job& job, JobResult& res) {
    const auto& reg = job.world().obs().metrics();
    auto q = [&](const char* name, double qq) {
        const auto* h = reg.find_histogram(name);
        return h != nullptr && h->count() > 0 ? h->quantile(qq) : 0.0;
    };
    res.deferral_ns_p50 = q("rma.epoch_deferral_ns", 0.5);
    res.deferral_ns_p90 = q("rma.epoch_deferral_ns", 0.9);
    res.close_to_complete_ns_p50 = q("rma.epoch_close_to_complete_ns", 0.5);
    res.close_to_complete_ns_p90 = q("rma.epoch_close_to_complete_ns", 0.9);
    res.op_transfer_ns_p50 = q("rma.op_transfer_ns", 0.5);
    res.overlap_ratio_p50 = q("rma.epoch_overlap_ratio", 0.5);
}

}  // namespace

const char* to_string(Workload w) noexcept {
    switch (w) {
        case Workload::FenceStorm: return "fence_storm";
        case Workload::Transactions: return "transactions";
        case Workload::BulkRw: return "bulk_rw";
        case Workload::Diagnose: return "diagnose";
    }
    return "?";
}

bool parse_workload(const std::string& name, Workload& out) {
    for (Workload w : {Workload::FenceStorm, Workload::Transactions,
                       Workload::BulkRw, Workload::Diagnose}) {
        if (name == to_string(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

Params workload_params(Workload w, std::uint64_t seed) {
    Params prm;
    prm.workload = w;
    prm.seed = seed;
    switch (w) {
        case Workload::FenceStorm:
            prm.ranks = 256;
            prm.iters = 4;
            prm.iters_per_round = prm.ranks;  // one fence, job-wide
            prm.late_work = nbe::apps::kDelay;
            break;
        case Workload::Transactions:
        case Workload::Diagnose:
            prm.ranks = 256;
            prm.iters = 100;
            prm.iters_per_round = prm.ranks * 5;  // job-wide updates
            break;
        case Workload::BulkRw:
            prm.ranks = 64;
            prm.iters = 120;
            prm.iters_per_round = prm.ranks * 6;  // each size once, job-wide
            break;
    }
    return prm;
}

JobResult run_job(const Params& prm, bool probed) {
    const rt::JobConfig cfg = job_config(prm, probed);
    // obs::maybe_export numbers the files of successive exports in one
    // process; only jobs run here set an export path, so this count tracks
    // its numbering.
    static int exports = 0;
    auto& ex = nbe::obs::default_export_config();
    ex = {};
    const bool exporting = cfg.obs.trace && !prm.export_path.empty();
    if (exporting) ex.trace_path = prm.export_path;

    JobResult res;
    res.attempted = planned_ops(prm);
    if (probed) {
        res.probe.resumed.resize(idx(prm.ranks));
        res.probe.issue_ns.reserve(res.attempted);
        res.probe.sweep_ns.reserve(res.attempted);
    }
    JobState st(prm, probed ? &res.probe : nullptr);
    const Body body = body_for(prm.workload);

    const auto t0 = st.host_now();
    std::optional<nbe::Job> job(std::in_place, cfg);
    const auto t_run0 = st.host_now();
    try {
        job->run([&](Proc& p) {
            if (st.probe) st.probe->resumed[idx(p.rank())] = st.host_now();
            body(p, st);
            if (st.probe) {
                st.probe->fiber_ns += ns_between(st.probe->resumed[idx(p.rank())], st.host_now());
            }
        });
    } catch (const std::exception& e) {
        res.error = e.what();
    }
    const auto t_run1 = st.host_now();

    // The benchmark's own reading and checking: not timed.
    res.job_end_ns = job->world().engine().now();
    read_counts(*job, prm.ranks, res.counts);
    if (cfg.obs.metrics) read_histograms(*job, res);
    if (res.error.empty()) {
        res.virtual_ns = *std::max_element(st.t_end.begin(), st.t_end.end()) - st.t_start[0];
        sim::Duration mpi = 0, span = 0;
        for (std::size_t r = 0; r < st.t_end.size(); ++r) {
            mpi += st.mpi_end[r] - st.mpi_start[r];
            span += st.t_end[r] - st.t_start[r];
        }
        res.comm_pct = span > 0 ? 100.0 * static_cast<double>(mpi) / static_cast<double>(span) : 0;
    }
    std::uint64_t failed = st.failed + res.counts.epochs_aborted +
                           res.counts.protocol_errors + res.counts.check_conflicts +
                           res.counts.check_epoch_errors;
    if (prm.workload == Workload::Transactions || prm.workload == Workload::Diagnose) {
        std::uint64_t sum = 0;
        for (auto v : st.counter) sum += v;
        const std::uint64_t want = static_cast<std::uint64_t>(prm.ranks) *
                                   static_cast<std::uint64_t>(prm.iters);
        failed += sum > want ? sum - want : want - sum;
    }
    // A job that threw leaves its remaining operations failed; one that
    // finished must have made exactly the planned calls.
    const std::uint64_t done = st.ops_done;
    failed += done > res.attempted ? done - res.attempted : res.attempted - done;
    res.failed = std::min(failed, res.attempted);

    const auto t_td0 = Clock::now();
    job.reset();
    const auto t_td1 = Clock::now();
    ex = {};

    res.run_host_s = seconds_between(t_run0, t_run1);
    res.teardown_s = seconds_between(t_td0, t_td1);
    if (!st.stamps.empty()) {
        res.setup_s = seconds_between(t0, st.stamps.front());
        res.wall_s = seconds_between(st.stamps.front(), t_run1) + res.teardown_s;
        for (std::size_t i = 1; i < st.stamps.size(); ++i) {
            res.round_ms.push_back(1e3 * seconds_between(st.stamps[i - 1], st.stamps[i]));
        }
    }
    if (exporting) {
        const std::string file = nbe::obs::numbered_path(prm.export_path, ++exports);
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(file, ec);
        res.trace_mb = ec ? 0.0 : static_cast<double>(bytes) / 1e6;
        res.trace_events = trace_event_count(file);
        if (res.trace_events <= 0 && res.failed < res.attempted) ++res.failed;
        std::filesystem::remove(file, ec);
    }
    return res;
}

}  // namespace perfbench
