// Fixed-size block pools for the simulator's steady-state object churn.
//
// The datapath creates and destroys the same few object shapes millions of
// times per run (wire packets, DES overflow nodes, RMA ops, request
// states). BlockPool hands out fixed-size blocks from slab chunks through
// an intrusive free list: after a short warm-up no acquisition touches
// malloc. Pools are shared_ptr-owned so handles (PoolPtr, PoolAllocator-
// backed shared_ptrs, queued engine events) can outlive the subsystem that
// created the pool — the blocks stay valid until the last handle drops.
//
// Every pool registers its stats under a name in the process-global
// PoolRegistry; nbe::obs publishes a snapshot (aggregated by name, sorted)
// so benches expose live/free/alloc counts via --metrics, and the
// allocation-regression test asserts zero growth across a steady-state
// window.
//
// Under NBE_POOL_POISON (set by CMake whenever NBE_SANITIZE is active)
// released blocks are filled with 0xEF so use-after-release reads trip
// sanitizers / assertions instead of silently seeing stale objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace nbe::sim {

struct PoolStats {
    std::uint64_t allocs = 0;        ///< total block acquisitions
    std::uint64_t chunk_allocs = 0;  ///< slab growth events (real mallocs)
    std::uint64_t oversize = 0;      ///< size-mismatch fallbacks to operator new
    std::uint64_t live = 0;          ///< blocks currently handed out
    std::uint64_t free_blocks = 0;   ///< blocks parked on the free list
};

/// Process-global directory of pool stats, keyed by pool name. Multiple
/// pools may share a name (e.g. one "rma.op" pool per window); snapshots
/// aggregate them. Registration order does not matter: snapshots are
/// sorted by name so exported metrics stay byte-deterministic.
class PoolRegistry {
public:
    struct Snapshot {
        std::string name;
        PoolStats stats;
    };

    static PoolRegistry& instance();

    void add(const std::string* name, const PoolStats* stats);
    /// Unregisters a dying pool; blocks it still has out count as lost.
    void remove(const PoolStats* stats) noexcept;
    [[nodiscard]] std::vector<Snapshot> snapshot() const;

    /// Blocks that were still handed out when their pool was destroyed:
    /// objects whose owner never released them (a leak).
    [[nodiscard]] std::uint64_t lost_blocks() const noexcept {
        return lost_blocks_;
    }

private:
    std::vector<std::pair<const std::string*, const PoolStats*>> entries_;
    std::uint64_t lost_blocks_ = 0;
};

/// Untyped fixed-size block pool. The block size is adopted from the first
/// acquisition; later acquisitions of a different (rounded) size fall back
/// to operator new and are counted as `oversize` — correct, just unpooled.
class BlockPool {
public:
    static std::shared_ptr<BlockPool> create(std::string name);
    ~BlockPool();
    BlockPool(const BlockPool&) = delete;
    BlockPool& operator=(const BlockPool&) = delete;

    void* acquire(std::size_t bytes);
    void release(void* p, std::size_t bytes) noexcept;

    [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    explicit BlockPool(std::string name);
    void grow();
    [[nodiscard]] std::size_t rounded(std::size_t bytes) const noexcept {
        // Keep every block aligned for anything new[] would align for.
        constexpr std::size_t a = alignof(std::max_align_t);
        const std::size_t min = bytes < sizeof(void*) ? sizeof(void*) : bytes;
        return (min + a - 1) & ~(a - 1);
    }

    struct FreeNode {
        FreeNode* next;
    };

    std::string name_;
    std::size_t block_ = 0;  // adopted on first acquire
    FreeNode* free_ = nullptr;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    PoolStats stats_;
};

#if defined(NBE_POOL_POISON)
inline constexpr bool kPoolPoison = true;
#else
inline constexpr bool kPoolPoison = false;
#endif

/// Unique handle to a pool-constructed T. Carries a shared_ptr to the pool
/// so the block outlives even the pool's creator (e.g. a packet event
/// still queued when the Fabric is destroyed). 24 bytes — small enough to
/// sit inline in a SmallFn capture alongside `this`.
template <class T>
class PoolPtr {
public:
    PoolPtr() noexcept = default;
    PoolPtr(T* p, std::shared_ptr<BlockPool> pool) noexcept
        : p_(p), pool_(std::move(pool)) {}
    PoolPtr(PoolPtr&& o) noexcept : p_(o.p_), pool_(std::move(o.pool_)) {
        o.p_ = nullptr;
    }
    PoolPtr& operator=(PoolPtr&& o) noexcept {
        if (this != &o) {
            reset();
            p_ = o.p_;
            pool_ = std::move(o.pool_);
            o.p_ = nullptr;
        }
        return *this;
    }
    PoolPtr(const PoolPtr&) = delete;
    PoolPtr& operator=(const PoolPtr&) = delete;
    ~PoolPtr() { reset(); }

    void reset() noexcept {
        if (p_ != nullptr) {
            p_->~T();
            pool_->release(p_, sizeof(T));
            p_ = nullptr;
            pool_.reset();
        }
    }

    [[nodiscard]] T& operator*() const noexcept { return *p_; }
    [[nodiscard]] T* operator->() const noexcept { return p_; }
    [[nodiscard]] T* get() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

private:
    T* p_ = nullptr;
    std::shared_ptr<BlockPool> pool_;
};

template <class T, class... A>
PoolPtr<T> pool_make(const std::shared_ptr<BlockPool>& pool, A&&... args) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    void* mem = pool->acquire(sizeof(T));
    return PoolPtr<T>(::new (mem) T(std::forward<A>(args)...), pool);
}

/// Minimal allocator over a shared BlockPool, for std::allocate_shared:
/// the control block and the object land in one pooled block, and the
/// block returns to the pool when the last shared_ptr drops — so existing
/// shared_ptr call sites (OpPtr, RequestState) pool with zero churn.
template <class T>
class PoolAllocator {
public:
    using value_type = T;

    explicit PoolAllocator(std::shared_ptr<BlockPool> pool) noexcept
        : pool_(std::move(pool)) {}
    template <class U>
    PoolAllocator(const PoolAllocator<U>& o) noexcept  // NOLINT
        : pool_(o.pool_) {}

    T* allocate(std::size_t n) {
        if (n == 1) return static_cast<T*>(pool_->acquire(sizeof(T)));
        return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        if (n == 1) {
            pool_->release(p, sizeof(T));
            return;
        }
        ::operator delete(p);
    }

    template <class U>
    bool operator==(const PoolAllocator<U>& o) const noexcept {
        return pool_ == o.pool_;
    }

    std::shared_ptr<BlockPool> pool_;
};

}  // namespace nbe::sim
