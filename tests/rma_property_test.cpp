// Property-based tests: randomized workloads checked against sequential
// references and cross-run determinism, over every mode / flag combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/window.hpp"

using namespace nbe;

namespace {

JobConfig internode(int ranks, Mode mode) {
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = mode;
    cfg.fabric.ranks_per_node = 2;
    return cfg;
}

}  // namespace

// --------------------------------------------------------- commutativity

struct StormCase {
    Mode mode;
    bool aaar;
    std::uint64_t seed;
};

class AccumulateStorm : public ::testing::TestWithParam<StormCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, AccumulateStorm,
    ::testing::Values(StormCase{Mode::Mvapich, false, 1},
                      StormCase{Mode::NewBlocking, false, 2},
                      StormCase{Mode::NewNonblocking, false, 3},
                      StormCase{Mode::NewNonblocking, true, 4},
                      StormCase{Mode::NewNonblocking, true, 5},
                      StormCase{Mode::NewNonblocking, false, 6}),
    [](const auto& info) {
        std::string n = to_string(info.param.mode);
        for (auto& c : n) {
            if (c == ' ') c = '_';
        }
        return n + (info.param.aaar ? "_aaar" : "") + "_seed" +
               std::to_string(info.param.seed);
    });

TEST_P(AccumulateStorm, RandomAtomicSumsMatchTheSequentialTotal) {
    // Every rank fires random accumulate(+k) updates at random (rank, slot)
    // pairs under exclusive locks. Accumulation is commutative, so whatever
    // order the engine (or the reorder flags) produce, the final matrix of
    // sums must equal the sequentially computed expectation.
    const auto param = GetParam();
    const int n = 6;
    const int updates = 30;
    constexpr std::size_t kSlots = 4;

    // Sequential expectation, derived from the same per-rank RNG streams.
    std::map<std::pair<Rank, std::size_t>, std::int64_t> expected;
    JobConfig cfg = internode(n, param.mode);
    cfg.seed = param.seed;
    for (Rank r = 0; r < n; ++r) {
        sim::Xoshiro256 rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1)));
        for (int i = 0; i < updates; ++i) {
            const Rank t = static_cast<Rank>(rng.below(n));
            const auto slot = static_cast<std::size_t>(rng.below(kSlots));
            const auto k = static_cast<std::int64_t>(rng.below(100));
            expected[{t, slot}] += k;
        }
    }

    std::vector<std::vector<std::int64_t>> finals(
        static_cast<std::size_t>(n), std::vector<std::int64_t>(kSlots, 0));
    WinInfo info;
    info.access_after_access = param.aaar;
    run(cfg, [&](Proc& p) {
        Window win = p.create_window(kSlots * sizeof(std::int64_t), info);
        auto& rng = p.rng();
        const bool nb = param.mode == Mode::NewNonblocking;
        std::vector<Request> pending;
        for (int i = 0; i < updates; ++i) {
            const Rank t = static_cast<Rank>(rng.below(n));
            const auto slot = static_cast<std::size_t>(rng.below(kSlots));
            const auto k = static_cast<std::int64_t>(rng.below(100));
            if (nb) {
                win.ilock(LockType::Exclusive, t);
                win.accumulate(std::span<const std::int64_t>(&k, 1),
                               ReduceOp::Sum, t, slot);
                pending.push_back(win.iunlock(t));
            } else {
                win.lock(LockType::Exclusive, t);
                win.accumulate(std::span<const std::int64_t>(&k, 1),
                               ReduceOp::Sum, t, slot);
                win.unlock(t);
            }
        }
        p.wait_all(pending);
        p.barrier();
        for (std::size_t s = 0; s < kSlots; ++s) {
            finals[static_cast<std::size_t>(p.rank())][s] =
                win.read<std::int64_t>(s);
        }
    });

    for (Rank r = 0; r < n; ++r) {
        for (std::size_t s = 0; s < kSlots; ++s) {
            const auto want = expected[std::make_pair(r, s)];
            EXPECT_EQ(finals[static_cast<std::size_t>(r)][s], want)
                << "rank " << r << " slot " << s;
        }
    }
}

// ----------------------------------------------------------- determinism

TEST(Determinism, IdenticalRunsProduceIdenticalTimeAndMemory) {
    auto run_once = [](std::uint64_t seed) {
        JobConfig cfg = internode(5, Mode::NewNonblocking);
        cfg.seed = seed;
        sim::Time end = 0;
        std::vector<std::int64_t> mem;
        WinInfo info;
        info.access_after_access = true;
        run(cfg, [&](Proc& p) {
            Window win = p.create_window(64, info);
            auto& rng = p.rng();
            std::vector<Request> rs;
            for (int i = 0; i < 20; ++i) {
                const Rank t = static_cast<Rank>(rng.below(5));
                const std::int64_t k = 1;
                win.ilock(LockType::Exclusive, t);
                win.accumulate(std::span<const std::int64_t>(&k, 1),
                               ReduceOp::Sum, t, 0);
                rs.push_back(win.iunlock(t));
            }
            p.wait_all(rs);
            p.barrier();
            if (p.rank() == 0) {
                end = p.now();
                mem.push_back(win.read<std::int64_t>(0));
            }
        });
        return std::make_pair(end, mem);
    };
    const auto a = run_once(42);
    const auto b = run_once(42);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    const auto c = run_once(43);
    EXPECT_NE(a.first, c.first);  // different seed, different schedule
}

// --------------------------------------------------- ordering invariants

class PutOrdering : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(Aaar, PutOrdering, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "with_aaar" : "no_flags";
                         });

TEST_P(PutOrdering, PerTargetPutSequencesLandInOrder) {
    // Each origin writes an increasing sequence to its own slot on random
    // targets via consecutive exclusive-lock epochs. Same-pair epochs are
    // FIFO even under A_A_A_R (the lock queue is FIFO), so the final value
    // in each slot must be the *last* sequence number that origin sent
    // there.
    const bool aaar = GetParam();
    const int n = 5;
    const int writes = 25;
    std::map<std::pair<Rank, Rank>, std::int64_t> expected;  // (target, origin)
    JobConfig cfg = internode(n, Mode::NewNonblocking);
    for (Rank r = 0; r < n; ++r) {
        sim::Xoshiro256 rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1)));
        for (int i = 0; i < writes; ++i) {
            const Rank t = static_cast<Rank>(rng.below(n));
            expected[{t, r}] = i;
        }
    }

    std::vector<std::vector<std::int64_t>> finals(
        static_cast<std::size_t>(n),
        std::vector<std::int64_t>(static_cast<std::size_t>(n), -1));
    WinInfo info;
    info.access_after_access = aaar;
    run(cfg, [&](Proc& p) {
        Window win = p.create_window(
            static_cast<std::size_t>(n) * sizeof(std::int64_t), info);
        auto& rng = p.rng();
        std::vector<Request> rs;
        for (int i = 0; i < writes; ++i) {
            const Rank t = static_cast<Rank>(rng.below(n));
            const std::int64_t v = i;
            win.ilock(LockType::Exclusive, t);
            win.put(std::span<const std::int64_t>(&v, 1), t,
                    static_cast<std::size_t>(p.rank()));
            rs.push_back(win.iunlock(t));
        }
        p.wait_all(rs);
        p.barrier();
        for (Rank o = 0; o < n; ++o) {
            finals[static_cast<std::size_t>(p.rank())]
                  [static_cast<std::size_t>(o)] =
                      win.read<std::int64_t>(static_cast<std::size_t>(o));
        }
    });

    for (Rank t = 0; t < n; ++t) {
        for (Rank o = 0; o < n; ++o) {
            const auto it = expected.find({t, o});
            const std::int64_t want =
                it == expected.end() ? -1 : it->second;
            EXPECT_EQ(finals[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(o)],
                      want)
                << "target " << t << " origin " << o;
        }
    }
}

// ----------------------------------------------- randomized GATS rounds

class GatsRounds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, GatsRounds, ::testing::Values(11, 22, 33));

TEST_P(GatsRounds, RandomBroadcastRoundsDeliverEverywhere) {
    // Round-robin broadcaster with a random payload per round; every rank
    // checks it saw every round's value.
    const int n = 4;
    const int rounds = 12;
    JobConfig cfg = internode(n, Mode::NewNonblocking);
    cfg.seed = GetParam();
    int failures = 0;
    run(cfg, [&](Proc& p) {
        Window win =
            p.create_window(static_cast<std::size_t>(rounds) * sizeof(std::int64_t));
        sim::Xoshiro256 script(cfg.seed);  // same script on every rank
        std::vector<Rank> others;
        for (Rank q = 0; q < n; ++q) {
            if (q != p.rank()) others.push_back(q);
        }
        for (int round = 0; round < rounds; ++round) {
            const Rank owner = static_cast<Rank>(round % n);
            const auto value = static_cast<std::int64_t>(script());
            if (p.rank() == owner) {
                win.start(others);
                for (Rank t : others) {
                    win.put(std::span<const std::int64_t>(&value, 1), t,
                            static_cast<std::size_t>(round));
                }
                Request r = win.icomplete();
                win.write<std::int64_t>(static_cast<std::size_t>(round), value);
                p.wait(r);
            } else {
                const Rank g[] = {owner};
                win.post(g);
                win.wait_exposure();
            }
        }
        p.barrier();
        sim::Xoshiro256 check(cfg.seed);
        for (int round = 0; round < rounds; ++round) {
            const auto want = static_cast<std::int64_t>(check());
            if (win.read<std::int64_t>(static_cast<std::size_t>(round)) != want) {
                ++failures;
            }
        }
    });
    EXPECT_EQ(failures, 0);
}

// ------------------------------------- activation order (§VI-A rule 4)

namespace {

// Independent re-implementation of the activation predicate (§VI-A/B),
// evaluated against a shadow model built purely from observer events.
struct ShadowEpoch {
    std::uint64_t seq = 0;
    EpochKind kind = EpochKind::Access;
    bool origin = false;
    bool closed = false;
};

bool ref_can_activate(Mode mode, const WinInfo& info,
                      const rma::Rma::EpochEvent& e,
                      const std::vector<ShadowEpoch>& active) {
    if (mode == Mode::Mvapich &&
        (e.kind == EpochKind::Lock || e.kind == EpochKind::LockAll) &&
        !e.closed_app && !e.flush_forced) {
        return false;
    }
    for (const auto& a : active) {
        if (!a.closed) continue;
        if (mode == Mode::Mvapich) return false;
        if (a.kind == EpochKind::Fence || a.kind == EpochKind::LockAll ||
            e.kind == EpochKind::Fence || e.kind == EpochKind::LockAll) {
            return false;
        }
        bool allowed = false;
        if (e.origin_side && a.origin) allowed = info.access_after_access;
        if (e.origin_side && !a.origin) allowed = info.access_after_exposure;
        if (!e.origin_side && !a.origin) allowed = info.exposure_after_exposure;
        if (!e.origin_side && a.origin) allowed = info.exposure_after_access;
        if (!allowed) return false;
    }
    return true;
}

struct ActivationCase {
    Mode mode;
    bool aaar;
    bool all_flags;
    std::uint64_t seed;
};

}  // namespace

class ActivationOrder : public ::testing::TestWithParam<ActivationCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, ActivationOrder,
    ::testing::Values(ActivationCase{Mode::Mvapich, false, false, 101},
                      ActivationCase{Mode::NewBlocking, false, false, 202},
                      ActivationCase{Mode::NewNonblocking, false, false, 303},
                      ActivationCase{Mode::NewNonblocking, true, false, 404},
                      ActivationCase{Mode::NewNonblocking, false, true, 505},
                      ActivationCase{Mode::NewNonblocking, false, false, 606}),
    [](const auto& info) {
        std::string n = to_string(info.param.mode);
        for (auto& c : n) {
            if (c == ' ') c = '_';
        }
        if (info.param.aaar) n += "_aaar";
        if (info.param.all_flags) n += "_all_flags";
        return n + "_seed" + std::to_string(info.param.seed);
    });

TEST_P(ActivationOrder, DeferredQueueNeverSkipsAndMatchesPredicate) {
    // Randomized epoch open/close/op/flush traffic over every epoch kind.
    // The engine reports each lifecycle transition through the epoch
    // observer; a shadow model replays them and asserts, at every
    // activation, that (a) the epoch was the *front* of its window's
    // deferred queue — rule 4, epochs are never skipped — and (b) the
    // activation predicate, re-evaluated from scratch against the shadow
    // active set, in fact held.
    const auto param = GetParam();
    const int n = 6;
    const int rounds = 10;
    const bool nb = param.mode == Mode::NewNonblocking;

    WinInfo info;
    info.access_after_access = param.aaar || param.all_flags;
    info.access_after_exposure = param.all_flags;
    info.exposure_after_exposure = param.all_flags;
    info.exposure_after_access = param.all_flags;

    struct ShadowWin {
        std::deque<ShadowEpoch> deferred;
        std::vector<ShadowEpoch> active;
    };
    std::map<std::pair<Rank, std::uint32_t>, ShadowWin> shadow;
    std::uint64_t activations = 0;

    JobConfig cfg = internode(n, param.mode);
    cfg.seed = param.seed;
    Job job(cfg);
    job.rma().set_epoch_observer([&](const rma::Rma::EpochEvent& ev) {
        using What = rma::Rma::EpochEvent::What;
        ShadowWin& sw = shadow[{ev.rank, ev.win}];
        const auto by_seq = [&](const ShadowEpoch& s) {
            return s.seq == ev.seq;
        };
        switch (ev.what) {
            case What::Open:
                sw.deferred.push_back({ev.seq, ev.kind, ev.origin_side,
                                       ev.closed_app});
                break;
            case What::Close:
                for (auto& s : sw.deferred) {
                    if (s.seq == ev.seq) s.closed = true;
                }
                for (auto& s : sw.active) {
                    if (s.seq == ev.seq) s.closed = true;
                }
                break;
            case What::Activate: {
                ++activations;
                ASSERT_FALSE(sw.deferred.empty())
                    << "rank " << ev.rank << " activated seq " << ev.seq
                    << " with an empty shadow queue";
                EXPECT_EQ(sw.deferred.front().seq, ev.seq)
                    << "rank " << ev.rank << " skipped over seq "
                    << sw.deferred.front().seq;
                EXPECT_TRUE(ref_can_activate(param.mode, info, ev, sw.active))
                    << "rank " << ev.rank << " activated seq " << ev.seq
                    << " while the reference predicate forbids it";
                ShadowEpoch s = sw.deferred.front();
                sw.deferred.pop_front();
                s.closed = ev.closed_app;
                sw.active.push_back(s);
                break;
            }
            case What::Complete:
                std::erase_if(sw.active, by_seq);
                std::erase_if(sw.deferred, by_seq);
                break;
        }
    });

    job.run([&](Proc& p) {
        Window win = p.create_window(256, info);
        auto& rng = p.rng();
        sim::Xoshiro256 script(cfg.seed);  // same phase schedule everywhere
        std::vector<Request> rs;
        std::vector<Rank> others;
        for (Rank q = 0; q < n; ++q) {
            if (q != p.rank()) others.push_back(q);
        }
        const auto slot = [&] { return static_cast<std::size_t>(rng.below(32)); };
        const auto value = [&] { return static_cast<std::int64_t>(rng.below(1000)); };
        win.fence();
        for (int round = 0; round < rounds; ++round) {
            switch (script.below(4)) {
                case 0: {  // collective fence round
                    if (nb) {
                        rs.push_back(win.ifence());
                    } else {
                        win.fence();
                    }
                    const std::int64_t v = value();
                    win.put(std::span<const std::int64_t>(&v, 1),
                            static_cast<Rank>(rng.below(n)), slot());
                    break;
                }
                case 1: {  // GATS broadcast round, script-agreed owner
                    const Rank owner = static_cast<Rank>(script.below(n));
                    if (p.rank() == owner) {
                        if (nb) {
                            win.istart(others);
                        } else {
                            win.start(others);
                        }
                        for (Rank t : others) {
                            const std::int64_t v = value();
                            win.put(std::span<const std::int64_t>(&v, 1), t,
                                    slot());
                        }
                        if (nb) {
                            rs.push_back(win.icomplete());
                        } else {
                            win.complete();
                        }
                    } else {
                        const Rank g[] = {owner};
                        if (nb) {
                            win.ipost(g);
                            rs.push_back(win.iwait_exposure());
                        } else {
                            win.post(g);
                            win.wait_exposure();
                        }
                    }
                    break;
                }
                case 2: {  // per-rank lock epoch, random target + flush
                    const Rank t = static_cast<Rank>(rng.below(n));
                    const auto type = rng.below(2) == 0 ? LockType::Exclusive
                                                        : LockType::Shared;
                    const std::int64_t v = value();
                    if (nb) {
                        win.ilock(type, t);
                        win.accumulate(std::span<const std::int64_t>(&v, 1),
                                       ReduceOp::Sum, t, slot());
                        if (rng.below(3) == 0) rs.push_back(win.iflush(t));
                        rs.push_back(win.iunlock(t));
                    } else {
                        win.lock(type, t);
                        win.accumulate(std::span<const std::int64_t>(&v, 1),
                                       ReduceOp::Sum, t, slot());
                        if (rng.below(3) == 0) win.flush(t);
                        win.unlock(t);
                    }
                    break;
                }
                case 3: {  // collective lock_all round
                    if (nb) {
                        win.ilock_all();
                    } else {
                        win.lock_all();
                    }
                    const std::int64_t v = value();
                    win.put(std::span<const std::int64_t>(&v, 1),
                            static_cast<Rank>(rng.below(n)), slot());
                    if (nb) {
                        rs.push_back(win.iunlock_all());
                    } else {
                        win.unlock_all();
                    }
                    break;
                }
            }
        }
        p.wait_all(rs);
        win.fence(rma::kNoSucceed);
        p.barrier();
    });

    EXPECT_GT(activations, 0u);
    for (const auto& [key, sw] : shadow) {
        EXPECT_TRUE(sw.deferred.empty())
            << "rank " << key.first << " ended with "
            << sw.deferred.size() << " epochs stuck in the deferred queue";
        EXPECT_TRUE(sw.active.empty())
            << "rank " << key.first << " ended with "
            << sw.active.size() << " epochs never completed";
    }
}

// ------------------------------------------------- counter monotonicity

TEST(Counters, GrantCounterGrowsMonotonically) {
    Job job(internode(2, Mode::NewNonblocking));
    std::vector<std::uint64_t> samples;
    job.run([&](Proc& p) {
        Window win = p.create_window(64);
        if (p.rank() == 0) {
            for (int i = 0; i < 5; ++i) {
                win.lock(LockType::Exclusive, 1);
                win.unlock(1);
                samples.push_back(job.rma().stats(0).lock_grants_received);
            }
        }
        p.barrier();
    });
    ASSERT_EQ(samples.size(), 5u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i], i + 1);  // one grant per lock epoch
    }
}
