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
            const auto next = mgr.release(mgr.exclusive_holder());
            benchmark::DoNotOptimize(next.size());
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

// DES substrate: process handoff cost per backend. Every advance() is one
// park/resume round trip — a fiber switch, or two OS context switches plus
// a condvar wake on the threads backend.
void BM_EngineProcessHandoff(benchmark::State& state,
                             nbe::sim::Engine::Backend backend) {
    const int hops = static_cast<int>(state.range(0));
    for (auto _ : state) {
        nbe::sim::Engine eng(backend);
        eng.spawn("hopper", [hops](nbe::sim::Process& p) {
            for (int i = 0; i < hops; ++i) p.advance(1);
        });
        eng.run();
    }
    state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK_CAPTURE(BM_EngineProcessHandoff, fibers,
                  nbe::sim::Engine::Backend::Fibers)
    ->Arg(100)
    ->Arg(1000);
BENCHMARK_CAPTURE(BM_EngineProcessHandoff, threads,
                  nbe::sim::Engine::Backend::Threads)
    ->Arg(100)
    ->Arg(1000);

// Rank-count scaling sweep: N simulated processes ping-ponging through the
// event queue, the same interleaving shape rt::World produces at scale.
// Spawn/teardown cost (N stacks or N OS threads) is inside the timed
// region deliberately — it is part of what each simulated job pays.
void BM_EngineRankScaling(benchmark::State& state,
                          nbe::sim::Engine::Backend backend) {
    const int ranks = static_cast<int>(state.range(0));
    const int hops = 32;
    for (auto _ : state) {
        nbe::sim::Engine eng(backend);
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
BENCHMARK_CAPTURE(BM_EngineRankScaling, fibers,
                  nbe::sim::Engine::Backend::Fibers)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EngineRankScaling, threads,
                  nbe::sim::Engine::Backend::Threads)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
