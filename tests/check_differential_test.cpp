// Cross-mode differential fuzzer (the checker PR's tentpole test).
//
// Each seed deterministically generates a conflict-free random RMA
// workload — fence / GATS / passive-target rounds mixing puts, gets,
// commutative shared accumulates, owner-exclusive non-commutative
// accumulate sequences, and rendezvous-size accumulates — and runs it
// under each of the 3 modes. Consecutive lock_all rounds share one
// lock_all session: flush, flush_local and flush_all calls fall between
// its ops, and a flush of every target ends each of its rounds. Every run
// must produce byte-identical final window contents and get results
// against a sequential oracle. The semantics checker rides along on every
// run and must report zero findings: a conflict-free plan that trips it
// is a checker bug, a plan that diverges from the oracle is an engine
// bug. The first seed of each mode runs twice and must reproduce its end
// time, windows and gets bit-for-bit. Every run must also end with each
// rank's epochs all completed or aborted, and none left in the engine's
// open-epoch records.
//
// NBE_FUZZ_SEEDS overrides the seed count (CI runs 800; default 100).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.hpp"
#include "core/window.hpp"
#include "obs/record.hpp"

using namespace nbe;

namespace {

// ---- window layout (uint64 slots) ----
// Two put zones alternate per round: the zone not being written is the
// round's read-only get zone, so gets always see stable bytes.
constexpr std::uint32_t kPutA = 0, kPutAEnd = 64;
constexpr std::uint32_t kPutB = 64, kPutBEnd = 128;
// Shared commutative zone: any subset of origins Sum-accumulates here.
constexpr std::uint32_t kAccShared = 128, kAccSharedEnd = 192;
// Owner-exclusive slots: slot kOrdered + r is only ever touched by rank r,
// with non-commutative operator sequences (program order must hold).
constexpr std::uint32_t kOrdered = 192;
// Rendezvous zone: > 8 KB Sum accumulates (1025 slots = 8200 bytes).
constexpr std::uint32_t kBig = 256, kBigEnd = 1281;
constexpr std::uint32_t kSlots = kBigEnd;

enum class Shape { Fence, Gats, Lock, LockAll };

/// A flush call in a lock_all session: after an op (toward the op's
/// target for One/Local), or at a round's end (every target).
enum class Flush { None, One, Local, All, LocalAll };

struct OpDesc {
    enum class Kind { Put, Get, Acc } kind = Kind::Put;
    rma::ReduceOp rop = rma::ReduceOp::Sum;
    Rank target = 0;
    std::uint32_t slot = 0;
    std::uint32_t count = 1;   // elements; every element carries `value`
    std::uint64_t value = 0;
    Flush flush_after = Flush::None;  // LockAll rounds only
};

struct RoundPlan {
    Shape shape = Shape::Fence;
    std::vector<std::vector<OpDesc>> ops;  // [rank], in program order
    /// LockAll rounds: One flushes each target, Local flush_locals each
    /// target and then flushes all, All is one flush_all. Each makes the
    /// round's transfers remotely complete before the closing barrier.
    Flush end_flush = Flush::All;
};

struct Plan {
    int nranks = 2;
    std::vector<RoundPlan> rounds;
};

Plan make_plan(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Plan plan;
    plan.nranks = 2 + static_cast<int>(rng() % 3);  // 2..4
    const int rounds = 3 + static_cast<int>(rng() % 4);  // 3..6
    auto chance = [&](double p) {
        return std::uniform_real_distribution<double>(0, 1)(rng) < p;
    };
    auto val = [&] { return 1 + rng() % 1000; };
    // A lock_all session spans consecutive LockAll rounds, and the checker
    // compares every access an origin makes in one session. So within a
    // session an origin puts to a (target, slot) only if it has not
    // accessed it yet, and gets one only if it has not put to it.
    using Access = std::tuple<Rank, Rank, std::uint32_t>;  // origin, target, slot
    std::set<Access> session_puts;
    std::set<Access> session_gets;
    for (int round = 0; round < rounds; ++round) {
        RoundPlan rp;
        rp.shape = static_cast<Shape>(rng() % 4);
        const bool session = rp.shape == Shape::LockAll;
        if (!session) {
            session_puts.clear();
            session_gets.clear();
        }
        rp.ops.resize(static_cast<std::size_t>(plan.nranks));
        const bool write_a = round % 2 == 0;
        const std::uint32_t wlo = write_a ? kPutA : kPutB;
        const std::uint32_t whi = write_a ? kPutAEnd : kPutBEnd;
        const std::uint32_t rlo = write_a ? kPutB : kPutA;
        const std::uint32_t rhi = write_a ? kPutBEnd : kPutAEnd;
        for (Rank t = 0; t < plan.nranks; ++t) {
            // Puts: at most one origin writes each (target, slot) per round.
            for (std::uint32_t s = wlo; s < whi; ++s) {
                if (!chance(0.12)) continue;
                Rank o = static_cast<Rank>(rng() % plan.nranks);
                if (o == t) continue;
                if (session && (session_gets.count({o, t, s}) != 0 ||
                                !session_puts.insert({o, t, s}).second)) {
                    continue;
                }
                rp.ops[static_cast<std::size_t>(o)].push_back(
                    {OpDesc::Kind::Put, rma::ReduceOp::Sum, t, s, 1, val()});
            }
            // Shared accumulates: Sum commutes, so any subset may overlap.
            for (std::uint32_t s = kAccShared; s < kAccSharedEnd; ++s) {
                for (Rank o = 0; o < plan.nranks; ++o) {
                    if (o == t || !chance(0.05)) continue;
                    rp.ops[static_cast<std::size_t>(o)].push_back(
                        {OpDesc::Kind::Acc, rma::ReduceOp::Sum, t, s, 1,
                         val()});
                }
            }
        }
        for (Rank o = 0; o < plan.nranks; ++o) {
            auto& mine = rp.ops[static_cast<std::size_t>(o)];
            // Owner-exclusive non-commutative sequence on slot kOrdered+o.
            if (chance(0.7)) {
                Rank t = static_cast<Rank>(rng() % plan.nranks);
                if (t != o) {
                    const std::uint32_t s =
                        kOrdered + static_cast<std::uint32_t>(o);
                    const rma::ReduceOp seq[] = {
                        rma::ReduceOp::Replace, rma::ReduceOp::Sum,
                        rma::ReduceOp::Min, rma::ReduceOp::Max};
                    const int n = 2 + static_cast<int>(rng() % 3);
                    for (int i = 0; i < n; ++i) {
                        mine.push_back({OpDesc::Kind::Acc, seq[rng() % 4], t,
                                        s, 1, val()});
                    }
                }
            }
            // Rendezvous-size accumulate: interleaves with the ordered
            // sequence toward the same target via the acc_seq gate.
            if (chance(0.25)) {
                Rank t = static_cast<Rank>(rng() % plan.nranks);
                if (t != o) {
                    mine.push_back({OpDesc::Kind::Acc, rma::ReduceOp::Sum, t,
                                    kBig, kBigEnd - kBig, 1 + rng() % 3});
                }
            }
            // Gets from the round's read-only zone.
            const int gets = static_cast<int>(rng() % 4);
            for (int i = 0; i < gets; ++i) {
                Rank t = static_cast<Rank>(rng() % plan.nranks);
                if (t == o) continue;
                const std::uint32_t s =
                    rlo + static_cast<std::uint32_t>(rng() % (rhi - rlo));
                if (session) {
                    if (session_puts.count({o, t, s}) != 0) continue;
                    session_gets.insert({o, t, s});
                }
                mine.push_back(
                    {OpDesc::Kind::Get, rma::ReduceOp::Sum, t, s, 1, 0});
            }
            if (session) {
                for (OpDesc& op : mine) {
                    if (chance(0.15)) {
                        op.flush_after = static_cast<Flush>(1 + rng() % 4);
                    }
                }
            }
        }
        if (session) {
            const Flush ends[] = {Flush::One, Flush::Local, Flush::All};
            rp.end_flush = ends[rng() % 3];
        }
        plan.rounds.push_back(std::move(rp));
    }
    return plan;
}

std::uint64_t apply_reduce(rma::ReduceOp op, std::uint64_t cur,
                           std::uint64_t v) {
    switch (op) {
        case rma::ReduceOp::Replace: return v;
        case rma::ReduceOp::Sum: return cur + v;
        case rma::ReduceOp::Min: return cur < v ? cur : v;
        case rma::ReduceOp::Max: return cur > v ? cur : v;
        default: return cur;
    }
}

struct Oracle {
    std::vector<std::vector<std::uint64_t>> windows;  // [rank][slot]
    std::vector<std::vector<std::uint64_t>> gets;     // [rank], program order
};

/// Sequential reference semantics. Within a round the op interleaving
/// across ranks cannot matter by construction (exclusive put slots,
/// commutative shared accumulates, single-owner ordered slots, read-only
/// get zone), so applying rank-by-rank in program order is exact.
Oracle run_oracle(const Plan& plan) {
    Oracle o;
    o.windows.assign(static_cast<std::size_t>(plan.nranks),
                     std::vector<std::uint64_t>(kSlots, 0));
    o.gets.resize(static_cast<std::size_t>(plan.nranks));
    for (const auto& round : plan.rounds) {
        // Gets first: their zone is untouched this round either way. Lock
        // rounds execute as one lock epoch per target in target order, so
        // their get results land grouped by target rather than in raw
        // program order — mirror that here.
        for (Rank r = 0; r < plan.nranks; ++r) {
            const auto& mine = round.ops[static_cast<std::size_t>(r)];
            auto emit = [&](Rank only_target) {
                for (const auto& op : mine) {
                    if (op.kind != OpDesc::Kind::Get) continue;
                    if (only_target >= 0 && op.target != only_target) continue;
                    o.gets[static_cast<std::size_t>(r)].push_back(
                        o.windows[static_cast<std::size_t>(op.target)]
                                 [op.slot]);
                }
            };
            if (round.shape == Shape::Lock) {
                for (Rank t = 0; t < plan.nranks; ++t) emit(t);
            } else {
                emit(-1);
            }
        }
        for (Rank r = 0; r < plan.nranks; ++r) {
            for (const auto& op : round.ops[static_cast<std::size_t>(r)]) {
                auto& tw = o.windows[static_cast<std::size_t>(op.target)];
                switch (op.kind) {
                    case OpDesc::Kind::Put: tw[op.slot] = op.value; break;
                    case OpDesc::Kind::Acc:
                        for (std::uint32_t i = 0; i < op.count; ++i) {
                            tw[op.slot + i] =
                                apply_reduce(op.rop, tw[op.slot + i],
                                             op.value);
                        }
                        break;
                    case OpDesc::Kind::Get: break;
                }
            }
        }
    }
    return o;
}

struct RunResult {
    std::vector<std::vector<std::uint64_t>> windows;
    std::vector<std::vector<std::uint64_t>> gets;
    sim::Time end_time = 0;
    bool checker_active = false;
    check::CheckStats check_stats;
    std::string check_report;
    /// Epoch life-cycle violations at job end: a rank whose opened epochs
    /// are not all completed or aborted, or an epoch still listed open.
    std::string lifecycle_report;
};

RunResult run_plan(const Plan& plan, Mode mode) {
    JobConfig cfg;
    cfg.ranks = plan.nranks;
    cfg.mode = mode;
    cfg.check = true;  // the checker must stay silent on every run
    RunResult out;
    out.windows.assign(static_cast<std::size_t>(plan.nranks), {});
    out.gets.resize(static_cast<std::size_t>(plan.nranks));
    Job job(cfg);
    job.run([&](Proc& p) {
        const auto me = static_cast<std::size_t>(p.rank());
        std::vector<Rank> others;
        for (Rank r = 0; r < p.size(); ++r) {
            if (r != p.rank()) others.push_back(r);
        }
        Window win = p.create_window(kSlots * sizeof(std::uint64_t));
        bool fence_open = false;
        bool session_open = false;  // a lock_all session spans its rounds
        // Accumulate payloads may be borrowed zero-copy until the epoch
        // closes; get landing slots are written at epoch close. Both live
        // here for the duration of the round (a lock_all round's closing
        // flush completes its ops).
        std::vector<std::vector<std::uint64_t>> bufs;
        std::vector<std::uint64_t> landed;
        auto flush = [&](Flush f, Rank t) {
            switch (f) {
                case Flush::None: break;
                case Flush::One: win.flush(t); break;
                case Flush::Local: win.flush_local(t); break;
                case Flush::All: win.flush_all(); break;
                case Flush::LocalAll: win.flush_local_all(); break;
            }
        };
        auto exec = [&](const OpDesc& op) {
            switch (op.kind) {
                case OpDesc::Kind::Put: {
                    bufs.emplace_back(1, op.value);
                    win.put(std::span<const std::uint64_t>(bufs.back()),
                            op.target, op.slot);
                    break;
                }
                case OpDesc::Kind::Acc: {
                    bufs.emplace_back(op.count, op.value);
                    win.accumulate(std::span<const std::uint64_t>(bufs.back()),
                                   op.rop, op.target, op.slot);
                    break;
                }
                case OpDesc::Kind::Get: {
                    // Capacity is reserved per round, so push_back never
                    // reallocates and the landing address stays stable
                    // while the get is in flight.
                    landed.push_back(0);
                    win.get(std::span<std::uint64_t>(&landed.back(), 1),
                            op.target, op.slot);
                    break;
                }
            }
        };
        for (const auto& round : plan.rounds) {
            const auto& mine = round.ops[me];
            std::size_t gets = 0;
            for (const auto& op : mine) {
                if (op.kind == OpDesc::Kind::Get) ++gets;
            }
            landed.clear();
            landed.reserve(gets);  // stable addresses for in-flight gets
            bufs.clear();
            if (session_open && round.shape != Shape::LockAll) {
                win.unlock_all();
                session_open = false;
            }
            switch (round.shape) {
                case Shape::Fence: {
                    if (!fence_open) win.fence();
                    fence_open = true;
                    for (const auto& op : mine) exec(op);
                    win.fence();
                    break;
                }
                case Shape::Gats: {
                    if (fence_open) {
                        win.fence(rma::kNoPrecede | rma::kNoSucceed);
                        fence_open = false;
                    }
                    win.post(std::span<const Rank>(others));
                    win.start(std::span<const Rank>(others));
                    for (const auto& op : mine) exec(op);
                    win.complete();
                    win.wait_exposure();
                    break;
                }
                case Shape::Lock: {
                    if (fence_open) {
                        win.fence(rma::kNoPrecede | rma::kNoSucceed);
                        fence_open = false;
                    }
                    // One exclusive lock epoch per target, in target order;
                    // each op stays in its origin's program order.
                    for (Rank t = 0; t < p.size(); ++t) {
                        bool any = false;
                        for (const auto& op : mine) {
                            if (op.target == t) any = true;
                        }
                        if (!any) continue;
                        win.lock(LockType::Exclusive, t);
                        for (const auto& op : mine) {
                            if (op.target == t) exec(op);
                        }
                        win.unlock(t);
                    }
                    // Passive-target rounds need a cross-rank barrier so the
                    // next round's reads see every origin's writes.
                    p.barrier();
                    break;
                }
                case Shape::LockAll: {
                    if (fence_open) {
                        win.fence(rma::kNoPrecede | rma::kNoSucceed);
                        fence_open = false;
                    }
                    if (!session_open) win.lock_all();
                    session_open = true;
                    for (const auto& op : mine) {
                        exec(op);
                        flush(op.flush_after, op.target);
                    }
                    // Every transfer of the round is remotely complete
                    // (and every get landed) before the barrier.
                    switch (round.end_flush) {
                        case Flush::One:
                            for (Rank t : others) win.flush(t);
                            break;
                        case Flush::Local:
                            for (Rank t : others) win.flush_local(t);
                            win.flush_all();
                            break;
                        default: win.flush_all(); break;
                    }
                    p.barrier();
                    break;
                }
            }
            for (std::uint64_t v : landed) out.gets[me].push_back(v);
        }
        if (fence_open) win.fence(rma::kNoPrecede | rma::kNoSucceed);
        if (session_open) win.unlock_all();
        p.barrier();
        const auto* base =
            reinterpret_cast<const std::uint64_t*>(win.base());
        out.windows[me].assign(base, base + kSlots);
    });
    out.end_time = job.world().engine().now();
    for (Rank r = 0; r < plan.nranks; ++r) {
        const rma::RmaStats& st = job.rma().stats(r);
        if (st.epochs_opened != st.epochs_completed + st.epochs_aborted) {
            out.lifecycle_report += "rank " + std::to_string(r) + ": opened " +
                                    std::to_string(st.epochs_opened) +
                                    ", completed " +
                                    std::to_string(st.epochs_completed) +
                                    ", aborted " +
                                    std::to_string(st.epochs_aborted) + "\n";
        }
    }
    for (const obs::Record& rec : job.rma().diagnostic_records()) {
        if (rec.type() == "rma.epoch") {
            out.lifecycle_report +=
                obs::render_records({rec}, "epoch left open");
        }
    }
    check::Checker* ck = job.world().checker();
    if (ck != nullptr) {
        out.checker_active = true;
        out.check_stats = ck->stats();
        out.check_report = obs::render_records(ck->records(), "checker");
    }
    return out;
}

int seed_count() {
    if (const char* env = std::getenv("NBE_FUZZ_SEEDS");
        env != nullptr && env[0] != '\0') {
        return std::atoi(env);
    }
    return 100;
}

// First seed index to run (default 0). Set to the failing index to replay
// one CI seed without grinding through its predecessors.
int seed_start() {
    if (const char* env = std::getenv("NBE_FUZZ_SEED_START");
        env != nullptr && env[0] != '\0') {
        return std::atoi(env);
    }
    return 0;
}

}  // namespace

TEST(CheckDifferential, ConflictFreePlansMatchOracleUnderAllConfigs) {
    const int seeds = seed_count();
    const int first = seed_start();
    const Mode modes[] = {Mode::Mvapich, Mode::NewBlocking,
                          Mode::NewNonblocking};
    for (int i = first; i < first + seeds; ++i) {
        const std::uint64_t seed = 0x6e626546757aULL + 7919u * i;  // "nbeFuz"
        const Plan plan = make_plan(seed);
        const Oracle oracle = run_oracle(plan);
        for (Mode mode : modes) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " mode=" + rt::to_string(mode));
            const RunResult r = run_plan(plan, mode);
            ASSERT_EQ(r.windows, oracle.windows);
            ASSERT_EQ(r.gets, oracle.gets);
            ASSERT_EQ(r.check_stats.conflicts, 0u) << r.check_report;
            ASSERT_EQ(r.check_stats.epoch_errors, 0u) << r.check_report;
            // Every epoch opened is retired exactly once, and none is left
            // listed open.
            ASSERT_EQ(r.lifecycle_report, "");
            // Only the real checker counts accesses; a compiled-out build
            // runs the differential halves alone.
            if (r.checker_active) {
                EXPECT_GT(r.check_stats.accesses, 0u);
            }
            // The simulator is bit-reproducible: a rerun of the same job
            // must land at the same virtual end time with the same bytes.
            if (i == first) {
                const RunResult again = run_plan(plan, mode);
                ASSERT_EQ(again.end_time, r.end_time);
                ASSERT_EQ(again.windows, r.windows);
                ASSERT_EQ(again.gets, r.gets);
            }
        }
    }
}
