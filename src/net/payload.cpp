#include "net/payload.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/pool.hpp"

namespace nbe::net {

struct PayloadRef::Buf {
    std::vector<std::byte> storage;  // keeps its capacity across reuse
    // Borrowed buffers read caller-owned memory instead of `storage`;
    // detach() copies [ext, ext+ext_len) into `storage` and clears `ext`,
    // atomically (w.r.t. the serial simulation) repointing every sharer.
    const std::byte* ext = nullptr;
    std::size_t ext_len = 0;
    std::uint32_t refs = 0;
    Buf* next_free = nullptr;
};

namespace {

struct Pool {
    PayloadRef::Buf* free_head = nullptr;
    PayloadPoolStats stats;

    /// A control block with no storage demand yet: borrow() wraps caller
    /// memory and only detach() would materialize `storage`.
    PayloadRef::Buf* acquire_node() {
        ++stats.acquires;
        ++stats.live;
        PayloadRef::Buf* b = free_head;
        if (b != nullptr) {
            free_head = b->next_free;
            --stats.free_buffers;
            b->next_free = nullptr;
        } else {
            b = new PayloadRef::Buf();
            ++stats.buffers_created;
        }
        b->refs = 1;
        return b;
    }

    PayloadRef::Buf* acquire(std::size_t n) {
        PayloadRef::Buf* b = acquire_node();
        // Content is whatever the caller writes; resize only value-
        // initializes growth beyond the retained capacity, so a same-sized
        // reuse touches no memory here.
        b->storage.resize(n);
        return b;
    }

    void release(PayloadRef::Buf* b) noexcept {
        --stats.live;
        b->ext = nullptr;  // never poison or retain caller-owned memory
        b->ext_len = 0;
        if constexpr (sim::kPoolPoison) {
            if (!b->storage.empty()) {  // borrowed-only nodes own no bytes
                std::memset(b->storage.data(), 0xEF, b->storage.size());
            }
        }
        b->next_free = free_head;
        free_head = b;
        ++stats.free_buffers;
    }
};

/// A payload's length as PayloadRef stores it.
std::uint32_t checked_len(std::size_t n) {
    if (n > PayloadRef::kMaxBytes) {
        throw std::length_error("PayloadRef: payload above 4 GiB");
    }
    return static_cast<std::uint32_t>(n);
}

// Leaky singleton (reachable, so leak checkers stay quiet): PayloadRefs in
// queued events or static storage may release during process teardown.
Pool& pool() {
    static Pool* g = new Pool();
    return *g;
}

}  // namespace

const PayloadPoolStats& payload_pool_stats() noexcept { return pool().stats; }

void payload_pool_reset() noexcept {
    Pool& p = pool();
    while (p.free_head != nullptr) {
        PayloadRef::Buf* b = p.free_head;
        p.free_head = b->next_free;
        delete b;
    }
    const std::uint64_t live = p.stats.live;  // outstanding refs keep their
    p.stats = PayloadPoolStats{};             // accounting across the reset
    p.stats.live = live;
}

PayloadRef::PayloadRef(const PayloadRef& o) noexcept
    : buf_(o.buf_), len_(o.len_) {
    if (buf_ != nullptr) ++buf_->refs;
}

PayloadRef& PayloadRef::operator=(const PayloadRef& o) noexcept {
    if (this != &o) {
        if (o.buf_ != nullptr) ++o.buf_->refs;
        reset();
        buf_ = o.buf_;
        len_ = o.len_;
    }
    return *this;
}

PayloadRef::PayloadRef(PayloadRef&& o) noexcept
    : buf_(o.buf_), len_(o.len_) {
    o.buf_ = nullptr;
    o.len_ = 0;
}

PayloadRef& PayloadRef::operator=(PayloadRef&& o) noexcept {
    if (this != &o) {
        reset();
        buf_ = o.buf_;
        len_ = o.len_;
        o.buf_ = nullptr;
        o.len_ = 0;
    }
    return *this;
}

PayloadRef PayloadRef::copy_of(const void* src, std::size_t n) {
    const std::uint32_t len = checked_len(n);
    if (len == 0) return {};
    Buf* b = pool().acquire(n);
    std::memcpy(b->storage.data(), src, n);
    pool().stats.bytes_copied += n;
    return PayloadRef(b, len);
}

PayloadRef PayloadRef::borrow(const void* src, std::size_t n) {
    const std::uint32_t len = checked_len(n);
    if (len == 0) return {};
    Buf* b = pool().acquire_node();
    b->ext = static_cast<const std::byte*>(src);
    b->ext_len = n;
    ++pool().stats.borrows;
    return PayloadRef(b, len);
}

bool PayloadRef::borrowed() const noexcept {
    return buf_ != nullptr && buf_->ext != nullptr;
}

void PayloadRef::detach() {
    if (buf_ == nullptr || buf_->ext == nullptr) return;
    buf_->storage.resize(buf_->ext_len);
    std::memcpy(buf_->storage.data(), buf_->ext, buf_->ext_len);
    buf_->ext = nullptr;
    buf_->ext_len = 0;
    ++pool().stats.detach_copies;
    pool().stats.bytes_copied += buf_->storage.size();
}

void PayloadRef::assign(const std::byte* first, const std::byte* last) {
    *this = copy_of(first, static_cast<std::size_t>(last - first));
}

void PayloadRef::resize(std::size_t n) {
    const std::uint32_t len = checked_len(n);
    reset();
    if (len == 0) return;
    Buf* b = pool().acquire(n);
    std::memset(b->storage.data(), 0, n);
    buf_ = b;
    len_ = len;
}

void PayloadRef::reset() noexcept {
    if (buf_ != nullptr) {
        if (--buf_->refs == 0) pool().release(buf_);
        buf_ = nullptr;
    }
    len_ = 0;
}

const std::byte* PayloadRef::data() const noexcept {
    if (buf_ == nullptr) return nullptr;
    return buf_->ext != nullptr ? buf_->ext : buf_->storage.data();
}

std::byte* PayloadRef::mutable_data() {
    if (buf_ == nullptr) return nullptr;
    // Never write through to caller-owned memory: own the bytes first.
    if (buf_->ext != nullptr) detach();
    if (buf_->refs > 1) {
        Buf* fresh = pool().acquire(len_);
        std::memcpy(fresh->storage.data(), buf_->storage.data(), len_);
        ++pool().stats.cow_copies;
        pool().stats.bytes_copied += len_;
        --buf_->refs;  // > 0 by the branch condition
        buf_ = fresh;
    }
    return buf_->storage.data();
}

std::uint32_t PayloadRef::ref_count() const noexcept {
    return buf_ != nullptr ? buf_->refs : 0;
}

}  // namespace nbe::net
