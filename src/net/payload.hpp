// Refcounted immutable payload buffers for the zero-copy wire datapath.
//
// A PayloadRef is (shared buffer, length). Payload bytes are
// written at most once — at get-reply assembly or a cold-path staging —
// and every subsequent hop (wire copy, fault-injection dup, retransmit,
// out-of-order buffering) shares the same buffer with a refcount bump
// instead of a memcpy. Readers treat the bytes as immutable; the only
// writer API is mutable_data(), which copies-on-write when the buffer is
// shared (corruption injection uses this to damage one wire copy without
// touching the sender's authoritative bytes).
//
// The hot path goes further: borrow() wraps caller-owned memory with no
// copy at all, modeling RDMA reading straight from the registered origin
// buffer. The bytes are physically read when the delivery event runs, so a
// borrowed buffer is only valid while the owner is barred from touching it
// — which MPI guarantees until the operation completes locally. detach()
// converts a borrowed buffer to an owned copy *in place* (every sharing
// PayloadRef follows, since they all point at the same control block); the
// RMA layer calls it at exactly the points where local completion is
// reported before the wire has consumed the bytes (flush_local, epoch
// abort).
//
// Buffers come from a process-global free-list pool (PayloadPool) keyed by
// nothing — each vector keeps its capacity across reuse, so a steady-state
// stream of same-sized payloads allocates nothing after warm-up. The pool
// is a leaky singleton: a PayloadRef held by a queued engine event or a
// static object can safely release after any subsystem teardown.
//
// Simulation execution is strictly serial (one context at a time, all
// fibers on one OS thread), so the pool and refcounts are intentionally
// non-atomic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nbe::net {

struct PayloadPoolStats {
    std::uint64_t buffers_created = 0;  ///< malloc-backed buffers ever made
    std::uint64_t acquires = 0;         ///< buffer checkouts (create + reuse)
    std::uint64_t cow_copies = 0;       ///< mutable_data() on a shared buffer
    std::uint64_t bytes_copied = 0;     ///< creation + COW + detach memcpy bytes
    std::uint64_t borrows = 0;          ///< zero-copy wraps of caller memory
    std::uint64_t detach_copies = 0;    ///< borrowed buffers forced to own
    std::uint64_t live = 0;             ///< buffers currently referenced
    std::uint64_t free_buffers = 0;     ///< buffers parked on the free list
};

[[nodiscard]] const PayloadPoolStats& payload_pool_stats() noexcept;

/// Purges the free list and zeroes the transfer counters (live buffers and
/// their accounting are untouched). Called at World construction so each
/// job's exported metrics are self-contained — and byte-identical when the
/// same job runs twice in one process.
void payload_pool_reset() noexcept;

class PayloadRef {
public:
    PayloadRef() noexcept = default;
    ~PayloadRef() { reset(); }
    PayloadRef(const PayloadRef& o) noexcept;             // shares (+1 ref)
    PayloadRef& operator=(const PayloadRef& o) noexcept;  // shares
    PayloadRef(PayloadRef&& o) noexcept;
    PayloadRef& operator=(PayloadRef&& o) noexcept;

    /// Largest payload a PayloadRef can describe (its length is 32-bit).
    static constexpr std::size_t kMaxBytes = 0xFFFFFFFFu;

    /// The single creation copy: new buffer holding [src, src+n). Throws
    /// std::length_error when n > kMaxBytes.
    [[nodiscard]] static PayloadRef copy_of(const void* src, std::size_t n);

    /// Zero-copy view of caller-owned memory. The caller must keep
    /// [src, src+n) alive and unmodified until every sharing ref is gone or
    /// detach() is called — the RMA layer enforces this via the MPI
    /// origin-buffer rule (no touching before local completion). Throws
    /// std::length_error when n > kMaxBytes, before touching the memory.
    [[nodiscard]] static PayloadRef borrow(const void* src, std::size_t n);

    /// True while the bytes still live in caller-owned memory.
    [[nodiscard]] bool borrowed() const noexcept;

    /// Converts a borrowed buffer to an owned copy in place; every sharing
    /// PayloadRef sees the owned bytes. No-op on owned/empty buffers.
    void detach();

    /// vector-style helpers kept for tests and cold paths; both throw
    /// std::length_error above kMaxBytes.
    void assign(const std::byte* first, const std::byte* last);
    /// Fresh zero-filled buffer of n bytes (detaches from any shared one).
    void resize(std::size_t n);

    void reset() noexcept;

    [[nodiscard]] const std::byte* data() const noexcept;
    [[nodiscard]] std::size_t size() const noexcept { return len_; }
    [[nodiscard]] bool empty() const noexcept { return len_ == 0; }

    /// Writable view; copies-on-write when the buffer is shared.
    [[nodiscard]] std::byte* mutable_data();

    /// Number of PayloadRefs sharing this buffer (0 for empty; tests).
    [[nodiscard]] std::uint32_t ref_count() const noexcept;

    struct Buf;  // opaque; defined in payload.cpp (pool needs visibility)

private:
    explicit PayloadRef(Buf* b, std::uint32_t len) noexcept : buf_(b), len_(len) {}

    // 16 bytes with padding: a packet carries one.
    Buf* buf_ = nullptr;
    std::uint32_t len_ = 0;
};

}  // namespace nbe::net
