// Ablation microbenchmarks (google-benchmark) for the engine internals the
// paper's design notes call out:
//   * Lock-manager grant/release cycles.
//   * Deferred-queue activation scans.
//   * DES event-queue throughput (simulator substrate cost).
#include <benchmark/benchmark.h>

#include "core/epoch.hpp"
#include "sim/engine.hpp"

namespace {

using nbe::rma::LockManager;
using nbe::rma::LockType;

// Lock manager grant/release cycles with a contended FIFO queue.
void BM_LockManagerContended(benchmark::State& state) {
    const int waiters = static_cast<int>(state.range(0));
    for (auto _ : state) {
        LockManager mgr;
        for (int o = 0; o < waiters; ++o) {
            mgr.request(o, LockType::Exclusive);
        }
        int released = 0;
        while (mgr.held()) {
            int granted = 0;
            mgr.release(mgr.exclusive_holder(),
                        [&](const LockManager::Waiter&) { ++granted; });
            benchmark::DoNotOptimize(granted);
            if (++released > waiters) break;
        }
    }
    state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_LockManagerContended)->Arg(4)->Arg(64)->Arg(512);

// DES substrate: raw event throughput.
void BM_EngineEventThroughput(benchmark::State& state) {
    const int events = static_cast<int>(state.range(0));
    for (auto _ : state) {
        nbe::sim::Engine eng;
        std::uint64_t sum = 0;
        for (int i = 0; i < events; ++i) {
            eng.schedule_at(i, [&sum, i] { sum += static_cast<std::uint64_t>(i); });
        }
        eng.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

// DES substrate: process handoff cost. Every advance() is one park/resume
// round trip — two fiber switches. Rows keep their "/fibers/" name so they
// stay comparable with earlier reports.
void BM_EngineProcessHandoff(benchmark::State& state) {
    const int hops = static_cast<int>(state.range(0));
    for (auto _ : state) {
        nbe::sim::Engine eng;
        eng.spawn("hopper", [hops](nbe::sim::Process& p) {
            for (int i = 0; i < hops; ++i) p.advance(1);
        });
        eng.run();
    }
    state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_EngineProcessHandoff)
    ->Name("BM_EngineProcessHandoff/fibers")
    ->Arg(100)
    ->Arg(1000);

// Rank-count scaling sweep: N simulated processes ping-ponging through the
// event queue, the same interleaving shape rt::World produces at scale.
// Spawn/teardown cost (N fiber stacks) is inside the timed region
// deliberately — it is part of what each simulated job pays.
void BM_EngineRankScaling(benchmark::State& state) {
    const int ranks = static_cast<int>(state.range(0));
    const int hops = 32;
    for (auto _ : state) {
        nbe::sim::Engine eng;
        for (int r = 0; r < ranks; ++r) {
            eng.spawn("rank" + std::to_string(r),
                      [hops](nbe::sim::Process& p) {
                          for (int i = 0; i < hops; ++i) p.advance(1);
                      });
        }
        eng.run();
        benchmark::DoNotOptimize(eng.events_executed());
    }
    state.SetItemsProcessed(state.iterations() * ranks * hops);
}
BENCHMARK(BM_EngineRankScaling)
    ->Name("BM_EngineRankScaling/fibers")
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
