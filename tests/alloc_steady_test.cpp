// Allocation-regression tests for the zero-copy datapath: a steady-state
// passive-target lock/put/unlock storm must, after a short warm-up,
// recycle everything — no slab growth in any block pool, no new payload
// buffers, no copy-on-write copies, no SmallFn heap fallbacks, zero
// payload bytes copied (bulk puts borrow the origin buffer all the way to
// the target-side window write), and at most a few heap allocations per
// iteration, counted by this binary's own global operator new. A long
// lock_all session with flushes must hold payload buffers for the ops in
// flight only, and what a fence loop's engine calls allocate per fence,
// or a lock-only window per rank, must not grow with the rank count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/epoch.hpp"
#include "core/window.hpp"
#include "net/payload.hpp"
#include "sim/callback.hpp"
#include "sim/pool.hpp"

using namespace nbe;

namespace {

/// Global operator new calls made by this test binary so far, and the
/// bytes they asked for.
std::uint64_t g_heap_allocs = 0;
std::uint64_t g_heap_bytes = 0;

}  // namespace

// Replacing the global allocation functions counts every heap allocation
// the simulator makes in this binary; new[] and the nothrow forms forward
// here by default. They stay out of line: where GCC inlines one but not
// its partner, it pairs malloc() or free() with an operator new or delete
// call and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
    ++g_heap_allocs;
    g_heap_bytes += n;
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

struct DatapathSnapshot {
    std::uint64_t pool_chunks = 0;    ///< slab growth events across pools
    std::uint64_t pool_oversize = 0;  ///< size-mismatch fallbacks
    std::uint64_t payload_buffers = 0;
    std::uint64_t payload_cow = 0;
    std::uint64_t payload_bytes_copied = 0;
    std::uint64_t payload_borrows = 0;
    std::uint64_t payload_detaches = 0;
    std::uint64_t smallfn_fallbacks = 0;
    sim::PoolStats completions;  ///< the fabric's completion-record pool
};

DatapathSnapshot snap() {
    DatapathSnapshot s;
    for (const auto& e : sim::PoolRegistry::instance().snapshot()) {
        s.pool_chunks += e.stats.chunk_allocs;
        s.pool_oversize += e.stats.oversize;
        if (e.name == "fabric.completion") s.completions = e.stats;
    }
    const net::PayloadPoolStats& p = net::payload_pool_stats();
    s.payload_buffers = p.buffers_created;
    s.payload_cow = p.cow_copies;
    s.payload_bytes_copied = p.bytes_copied;
    s.payload_borrows = p.borrows;
    s.payload_detaches = p.detach_copies;
    s.smallfn_fallbacks = sim::smallfn_heap_fallbacks();
    return s;
}

}  // namespace

TEST(AllocSteadyState, LockPutUnlockLoopRecyclesEverything) {
    constexpr std::size_t kPayloadBytes = 32768;
    constexpr int kWarmup = 8;
    constexpr int kSteady = 64;

    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;  // internode: full wire path + credits

    DatapathSnapshot warm{}, done{};
    std::uint64_t heap_allocs = 0;
    run(cfg, [&](Proc& p) {
        Window win = p.create_window(kPayloadBytes);
        p.barrier();
        if (p.rank() == 1) {
            std::vector<std::uint64_t> buf(kPayloadBytes / 8, 0x5a5a5a5a5aULL);
            auto one_iter = [&] {
                win.lock(LockType::Exclusive, 0);
                win.put(std::span<const std::uint64_t>(buf), 0, 0);
                win.unlock(0);
            };
            for (int i = 0; i < kWarmup; ++i) one_iter();
            warm = snap();
            const std::uint64_t allocs0 = g_heap_allocs;
            for (int i = 0; i < kSteady; ++i) one_iter();
            heap_allocs = g_heap_allocs - allocs0;
            done = snap();
        }
        p.barrier();
    });

    // Zero pool growth: every packet / op / request / event came off a
    // free list, no slab chunk was added, nothing missed its pool.
    EXPECT_EQ(done.pool_chunks, warm.pool_chunks);
    EXPECT_EQ(done.pool_oversize, warm.pool_oversize);

    // Zero payload copies: every put borrowed the origin buffer (it is
    // above the eager threshold), nothing was staged, COW'd, or detached,
    // and no new buffer nodes were minted.
    EXPECT_EQ(done.payload_buffers, warm.payload_buffers);
    EXPECT_EQ(done.payload_cow, warm.payload_cow);
    EXPECT_EQ(done.payload_bytes_copied, warm.payload_bytes_copied);
    EXPECT_EQ(done.payload_detaches, warm.payload_detaches);
    EXPECT_EQ(done.payload_borrows - warm.payload_borrows,
              static_cast<std::uint64_t>(kSteady));

    // Every hot-path callback capture fit the SmallFn inline buffer.
    EXPECT_EQ(done.smallfn_fallbacks, warm.smallfn_fallbacks);

    // Each put's data packet carries an on_acked, and its completion
    // record comes from the fabric's pool: one acquisition per op (lock
    // and unlock control packets take none), all off the free list.
    EXPECT_EQ(done.completions.allocs - warm.completions.allocs,
              static_cast<std::uint64_t>(kSteady));
    EXPECT_EQ(done.completions.chunk_allocs, warm.completions.chunk_allocs);
    EXPECT_EQ(done.completions.oversize, warm.completions.oversize);
    EXPECT_GT(warm.completions.chunk_allocs, 0u);

    // Sanity: the warm-up actually exercised the pools.
    EXPECT_GT(warm.pool_chunks, 0u);
    EXPECT_GT(warm.payload_borrows, 0u);

    // Heap allocations left per iteration (10.2 here): the epoch, its peer
    // map and its op backlog, and the first use of each event-calendar
    // bucket, since this window (1.3 ms virtual) is shorter than the
    // calendar's 2 ms ring; over 2048 iterations the count is 5.0. A park,
    // a lock release and a lock request's group allocate nothing.
    // The semantics checker's shadow records allocate by design, so the
    // bound holds for the simulator alone (NBE_CHECK=1 turns it on here).
    constexpr std::uint64_t kMaxHeapAllocsPerIter = 11;
    if (!cfg.check) {
        EXPECT_LE(heap_allocs, kMaxHeapAllocsPerIter * kSteady)
            << static_cast<double>(heap_allocs) / kSteady << " per iteration";
    }
}

// A fence loop puts nranks^2 control frames and nranks put frames on the
// lossless wire per fence. After a warm-up fence, the frame chunks and
// the boxes and completion records of the fabric's pools all come off
// free lists: further fences make no wire chunk and grow no fabric pool.
TEST(AllocSteadyState, FenceLoopAddsNoWireChunksOrFabricPoolSlabs) {
    constexpr int kRanks = 16;
    constexpr int kWarmup = 1;
    constexpr int kSteady = 16;

    JobConfig cfg;
    cfg.ranks = kRanks;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 4;  // NIC and shm channels both carry frames

    struct FabricSnapshot {
        std::uint64_t pool_chunks = 0;  ///< slab growth across fabric.* pools
        std::uint64_t pool_allocs = 0;
        std::size_t wire_chunks = 0;
    };
    Job job(cfg);
    auto fabric_snap = [&job] {
        FabricSnapshot s;
        for (const auto& e : sim::PoolRegistry::instance().snapshot()) {
            if (!e.name.starts_with("fabric.")) continue;
            s.pool_chunks += e.stats.chunk_allocs;
            s.pool_allocs += e.stats.allocs;
        }
        s.wire_chunks = job.world().fabric().wire_chunks().made;
        return s;
    };
    FabricSnapshot warm{}, done{};
    std::uint64_t landed = 0;
    job.run([&](Proc& p) {
        Window win = p.create_window(sizeof(std::uint64_t));
        const Rank right = (p.rank() + 1) % p.size();
        win.fence();
        for (int i = 0; i < kWarmup + kSteady; ++i) {
            if (i == kWarmup && p.rank() == 0) warm = fabric_snap();
            const std::uint64_t v = static_cast<std::uint64_t>(i);
            win.put(std::span<const std::uint64_t>(&v, 1), right, 0);
            win.fence();
        }
        if (p.rank() == 0) {
            done = fabric_snap();
            landed = win.read<std::uint64_t>(0);
        }
        p.barrier();
    });
    EXPECT_EQ(landed, static_cast<std::uint64_t>(kWarmup + kSteady - 1));
    EXPECT_GT(warm.wire_chunks, 0u);
    EXPECT_EQ(done.wire_chunks, warm.wire_chunks);
    EXPECT_EQ(done.pool_chunks, warm.pool_chunks);
    // The puts' boxes and completion records did come from those pools.
    EXPECT_GE(done.pool_allocs - warm.pool_allocs,
              static_cast<std::uint64_t>(kSteady * kRanks));
}

namespace {

/// Heap bytes per fence and rank that the RMA engine's fence and put
/// calls ask for in a warm one-neighbour put+fence loop over `ranks` ranks.
/// The calls go to the engine directly (Window's wrappers yield to the
/// event loop first), so the count holds what the calls themselves
/// allocate: the epoch, its per-peer state, the op's backlog slot. The
/// packet handlers that run between calls allocate no epoch state, and
/// leaving them out also leaves out the event calendar, whose ring buckets
/// reallocate in proportion to each fence's nranks^2 control packets.
double fence_call_heap_bytes(int ranks) {
    constexpr int kWarmup = 4;
    constexpr int kSteady = 32;
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 4;
    Job job(cfg);
    rma::Rma& engine = job.rma();
    std::uint64_t bytes = 0;
    job.run([&](Proc& p) {
        Window win = p.create_window(sizeof(std::uint64_t));
        const Rank right = (p.rank() + 1) % p.size();
        win.fence();
        for (int i = 0; i < kWarmup + kSteady; ++i) {
            const std::uint64_t v = static_cast<std::uint64_t>(i);
            const std::uint64_t before = g_heap_bytes;
            engine.post_op(p.rank(), win.id(), OpKind::Put, right, 0, &v,
                           nullptr, 1, rma::TypeIdOf<std::uint64_t>::value,
                           ReduceOp::Replace, false);
            Request fence = engine.ifence(p.rank(), win.id(), 0);
            if (i >= kWarmup) bytes += g_heap_bytes - before;
            p.wait(fence);
        }
    });
    return static_cast<double>(bytes) / (kSteady * ranks);
}

}  // namespace

// A fence names every rank, but this loop puts to one neighbour: what each
// fence epoch allocates must follow the ranks it sends ops to, not the
// group. One 72-byte PeerState per rank would add about 3.8 KB per fence
// and rank from 16 to 64 ranks. The bound holds with the checker on too
// (NBE_CHECK=1): its epoch_open reads the group in place.
TEST(AllocSteadyState, FenceEpochHeapBytesDoNotGrowWithTheRankCount) {
    const double at16 = fence_call_heap_bytes(16);
    const double at64 = fence_call_heap_bytes(64);
    EXPECT_LE(at64, at16) << at16 << " B per fence and rank at 16 ranks, "
                          << at64 << " at 64";
}

namespace {

/// Heap bytes per rank that a lock-only window costs over `ranks` ranks:
/// its creation, plus a warm loop in which every rank locks its right
/// neighbour, puts one word and unlocks. As in fence_call_heap_bytes, only
/// the engine's own calls are counted (create_window, ilock, post_op,
/// iunlock), not the packet handlers between them.
double lock_window_heap_bytes(int ranks) {
    constexpr int kWarmup = 4;
    constexpr int kSteady = 32;
    JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 4;
    Job job(cfg);
    rma::Rma& engine = job.rma();
    std::uint64_t bytes = 0;
    job.run([&](Proc& p) {
        std::uint64_t before = g_heap_bytes;
        const std::uint32_t win =
            engine.create_window(p.rank(), sizeof(std::uint64_t), WinInfo{});
        bytes += g_heap_bytes - before;
        p.barrier();  // window creation is collective
        const Rank right = (p.rank() + 1) % p.size();
        for (int i = 0; i < kWarmup + kSteady; ++i) {
            const std::uint64_t v = static_cast<std::uint64_t>(i);
            before = g_heap_bytes;
            engine.ilock(p.rank(), win, LockType::Exclusive, right);
            engine.post_op(p.rank(), win, OpKind::Put, right, 0, &v, nullptr,
                           1, rma::TypeIdOf<std::uint64_t>::value,
                           ReduceOp::Replace, false);
            Request unlock = engine.iunlock(p.rank(), win, right);
            if (i >= kWarmup) bytes += g_heap_bytes - before;
            p.wait(unlock);
        }
        p.barrier();
    });
    return static_cast<double>(bytes) / ranks;
}

}  // namespace

// Lock epochs acquire through the target's lock manager, never through the
// ⟨a,e,g⟩ counters, so a window that only runs lock epochs must not hold
// per-rank arrays: what it costs a rank must not grow with the rank count.
// Eight bytes per rank in one such array would add 384 B per rank from 16
// to 64 ranks.
TEST(AllocSteadyState, LockWindowHeapBytesDoNotGrowWithTheRankCount) {
    const double at16 = lock_window_heap_bytes(16);
    const double at64 = lock_window_heap_bytes(64);
    EXPECT_LE(at64, at16) << at16 << " B per rank at 16 ranks, " << at64
                          << " at 64";
}

// MPI-3's main passive-target pattern: one long lock_all session with a
// flush per iteration. Each finished op leaves its peer's backlog with its
// staged payload, so the payload buffers in use, and those ever created,
// stay under a bound that does not grow with the session's length.
TEST(AllocSteadyState, LockAllFlushLoopRecyclesEverything) {
    constexpr std::size_t kWords = 4096 / 8;  // below the zero-copy threshold
    constexpr int kIters = 2000;
    constexpr std::uint64_t kBound = 16;  // buffers; independent of kIters

    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;

    std::uint64_t created = 0;
    std::uint64_t live_growth = 0;
    std::uint64_t landed = 0;
    std::uint64_t got = 0;
    run(cfg, [&](Proc& p) {
        Window win = p.create_window(2 * kWords * sizeof(std::uint64_t));
        if (p.rank() == 0) {
            auto* base = reinterpret_cast<std::uint64_t*>(win.base());
            std::fill(base + kWords, base + 2 * kWords, 77);
        }
        p.barrier();
        if (p.rank() == 1) {
            std::vector<std::uint64_t> out(kWords), in(kWords);
            const net::PayloadPoolStats& pool = net::payload_pool_stats();
            const std::uint64_t created0 = pool.buffers_created;
            const std::uint64_t live0 = pool.live;
            win.lock_all();
            for (int i = 0; i < kIters; ++i) {
                out.assign(kWords, static_cast<std::uint64_t>(i));
                win.put(std::span<const std::uint64_t>(out), 0, 0);
                win.get(std::span<std::uint64_t>(in), 0, kWords);
                win.flush_all();
                if (pool.live > live0) {
                    live_growth = std::max(live_growth, pool.live - live0);
                }
            }
            win.unlock_all();
            created = pool.buffers_created - created0;
            got = in[0];
        }
        p.barrier();
        if (p.rank() == 0) landed = win.read<std::uint64_t>(0);
    });
    EXPECT_EQ(landed, static_cast<std::uint64_t>(kIters - 1));
    EXPECT_EQ(got, 77u);
    EXPECT_LT(created, kBound);
    EXPECT_LT(live_growth, kBound);
}

TEST(AllocSteadyState, BorrowedPayloadDetachesToOwnedCopyInPlace) {
    // borrow() wraps caller memory with no copy; detach() must repoint
    // every sharing ref at an owned snapshot, after which the caller's
    // buffer is free to change.
    std::vector<std::byte> src(32768, std::byte{0x11});
    net::PayloadRef a = net::PayloadRef::borrow(src.data(), src.size());
    net::PayloadRef wire = a;  // refcount share of the same borrow
    EXPECT_TRUE(a.borrowed());
    EXPECT_EQ(a.data(), src.data());  // genuinely zero-copy
    EXPECT_EQ(a.ref_count(), 2u);

    const std::uint64_t copies_before = net::payload_pool_stats().bytes_copied;
    a.detach();
    EXPECT_FALSE(a.borrowed());
    EXPECT_FALSE(wire.borrowed());  // the shared control block detached
    EXPECT_EQ(net::payload_pool_stats().bytes_copied - copies_before,
              src.size());
    src.assign(src.size(), std::byte{0x99});  // caller reuses the buffer
    EXPECT_EQ(a.data()[0], std::byte{0x11});
    EXPECT_EQ(wire.data()[0], std::byte{0x11});

    // Corruption injection on a borrowed buffer must never write through
    // to caller memory: mutable_data() detaches first.
    net::PayloadRef b = net::PayloadRef::borrow(src.data(), src.size());
    b.mutable_data()[0] = std::byte{0xEE};
    EXPECT_EQ(src[0], std::byte{0x99});
    EXPECT_EQ(b.data()[0], std::byte{0xEE});
}

TEST(AllocSteadyState, FlushLocalDetachesInFlightBorrows) {
    // flush_local licenses origin-buffer reuse before the wire has read
    // the bytes. The runtime must snapshot borrowed payloads at the flush,
    // so the target sees the values from put-time, not the overwrites.
    constexpr std::size_t kWords = 32768 / 8;  // above the eager threshold
    constexpr int kRounds = 4;

    JobConfig cfg;
    cfg.ranks = 2;
    cfg.mode = Mode::NewNonblocking;
    cfg.fabric.ranks_per_node = 1;
    std::vector<std::uint64_t> landed(kRounds, 0);
    run(cfg, [&](Proc& p) {
        Window win = p.create_window(kRounds * kWords * sizeof(std::uint64_t));
        p.barrier();
        if (p.rank() == 1) {
            std::vector<std::uint64_t> buf(kWords);
            win.lock(LockType::Exclusive, 0);
            for (int i = 0; i < kRounds; ++i) {
                buf.assign(kWords, 1000 + static_cast<std::uint64_t>(i));
                win.put(std::span<const std::uint64_t>(buf), 0,
                        static_cast<std::size_t>(i) * kWords);
                win.flush_local(0);  // after this, reusing buf is legal
            }
            buf.assign(kWords, 0xDEAD);  // must not be what round 3 lands
            win.unlock(0);
        }
        p.barrier();
        if (p.rank() == 0) {
            for (int i = 0; i < kRounds; ++i) {
                landed[static_cast<std::size_t>(i)] = win.read<std::uint64_t>(
                    static_cast<std::size_t>(i) * kWords);
            }
        }
        p.barrier();
    });
    for (int i = 0; i < kRounds; ++i) {
        EXPECT_EQ(landed[static_cast<std::size_t>(i)],
                  1000 + static_cast<std::uint64_t>(i))
            << "round " << i;
    }
}

TEST(AllocSteadyState, PayloadSharingIsCopyFree) {
    // A wire-style fan-out of one staged buffer: clones and dups bump the
    // refcount; only mutable_data() on a shared buffer copies.
    const std::uint64_t before_copies = net::payload_pool_stats().cow_copies;
    std::vector<std::byte> src(4096, std::byte{0x42});
    net::PayloadRef staged = net::PayloadRef::copy_of(src.data(), src.size());
    const std::uint64_t bytes_after_staging =
        net::payload_pool_stats().bytes_copied;

    net::PayloadRef wire = staged;       // clone
    net::PayloadRef dup = wire;          // fault-injection duplicate
    net::PayloadRef retransmit = staged; // retransmission
    EXPECT_EQ(staged.ref_count(), 4u);
    EXPECT_EQ(net::payload_pool_stats().bytes_copied, bytes_after_staging);

    // Corrupting one copy detaches only that copy (COW) and leaves the
    // authoritative bytes alone.
    dup.mutable_data()[0] = std::byte{0xFF};
    EXPECT_EQ(net::payload_pool_stats().cow_copies, before_copies + 1);
    EXPECT_EQ(staged.ref_count(), 3u);
    EXPECT_EQ(staged.data()[0], std::byte{0x42});
    EXPECT_EQ(dup.data()[0], std::byte{0xFF});
    EXPECT_EQ(wire.data()[0], std::byte{0x42});
    EXPECT_EQ(retransmit.data()[0], std::byte{0x42});
}
