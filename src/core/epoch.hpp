// Epoch and RMA-operation objects — the middleware-side state of the
// paper's design (Sections VI and VII).
//
// Terminology (paper Section VI): an epoch is *open/closed* at application
// level and *activated/completed* inside the middleware. A *deferred* epoch
// is one that has been opened (and possibly even closed) at application
// level but cannot be activated yet; its RMA calls are recorded and replayed
// on activation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/types.hpp"
#include "net/packet.hpp"
#include "rt/request.hpp"

namespace nbe::rma {

using Rank = net::Rank;

/// One recorded RMA communication call.
struct RmaOp {
    OpKind kind = OpKind::Put;
    Rank target = -1;
    std::uint64_t age = 0;      ///< Monotonic per-window stamp (flush matching).
    std::uint64_t id = 0;       ///< Per-window unique id (reply routing).
    std::size_t target_disp = 0;
    std::size_t bytes = 0;                ///< Payload bytes moved to the target.
    std::size_t reply_bytes = 0;          ///< Bytes returned (get family).
    TypeId type = TypeId::Byte;
    ReduceOp rop = ReduceOp::Replace;
    net::PayloadRef data;  ///< Staged origin payload (shared with the wire).
    std::byte* origin_out = nullptr;      ///< Result destination (get family).
    std::uint64_t origin_key = 0;         ///< Registration-cache key.
    std::shared_ptr<rt::RequestState> op_req;  ///< Request-based variant.
    sim::Time posted_at = 0;  ///< Virtual time the RMA call was recorded.
    sim::Time issued_at = 0;  ///< Virtual time the transfer was issued.
    /// Accumulate-family program-order index toward this op's target within
    /// its epoch (1-based; 0 for non-accumulate ops). MPI orders accumulate
    /// ops from the same origin to the same target; the issue path holds an
    /// accumulate back until every earlier one has put its data on the wire
    /// (rendezvous transfers and MVAPICH eager/batch mixes would otherwise
    /// overtake).
    std::uint32_t acc_seq = 0;
    /// Ordinal among the ops recorded toward `target` in its epoch
    /// (0-based): locates the op in its peer's backlog (see PeerState).
    std::uint32_t backlog_seq = 0;
    bool issued = false;
    bool local_done = false;
    bool remote_done = false;
    /// MVAPICH mode: the target was already ready when this RMA call was
    /// made, so the transfer may go out eagerly; otherwise it waits for the
    /// epoch-closing routine's batching rules (paper §VIII-B).
    bool mvapich_eager = false;
};

using OpPtr = std::shared_ptr<RmaOp>;

/// Sorted flat-vector map keyed by Rank. GATS, lock and lock-all epochs
/// build it once at open_epoch from their already-sorted group, so its
/// keys *are* the group; a fence epoch starts it empty and inserts a rank
/// at its first op (`try_emplace`). A dense map (lock_all: rank r at index
/// r) answers a lookup with one probe; others binary-search contiguous
/// pairs. Iteration visits ranks in ascending order (which protocol-level
/// send loops rely on for deterministic traces).
template <typename V>
class PeerMap {
public:
    using value_type = std::pair<Rank, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    /// Rebuilds the map with default-constructed values for `sorted_peers`
    /// (ascending, duplicate-free — open_epoch sorts the group once).
    void build(std::span<const Rank> sorted_peers) {
        entries_.clear();
        entries_.reserve(sorted_peers.size());
        for (Rank r : sorted_peers) entries_.emplace_back(r, V{});
    }

    /// The value for `r`, default-constructed and inserted in sorted
    /// position if absent (then `.second` is true). Inserting invalidates
    /// iterators and references into the map.
    std::pair<V&, bool> try_emplace(Rank r) {
        const auto it = std::lower_bound(
            entries_.begin(), entries_.end(), r,
            [](const value_type& e, Rank key) { return e.first < key; });
        if (it != entries_.end() && it->first == r) return {it->second, false};
        return {entries_.emplace(it, r, V{})->second, true};
    }

    [[nodiscard]] iterator find(Rank r) noexcept {
        return entries_.begin() + index_of(r);
    }
    [[nodiscard]] const_iterator find(Rank r) const noexcept {
        return entries_.begin() + index_of(r);
    }

    [[nodiscard]] bool contains(Rank r) const noexcept {
        return find(r) != entries_.end();
    }

    [[nodiscard]] V& at(Rank r) {
        auto it = find(r);
        if (it == entries_.end()) throw std::out_of_range("PeerMap::at");
        return it->second;
    }
    [[nodiscard]] const V& at(Rank r) const {
        auto it = find(r);
        if (it == entries_.end()) throw std::out_of_range("PeerMap::at");
        return it->second;
    }

    [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
    [[nodiscard]] iterator end() noexcept { return entries_.end(); }
    [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
    [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

private:
    /// Position of `r`, or size() when absent. Keys are sorted, distinct
    /// ranks, so `r` at index r is a hit whatever the group's shape.
    [[nodiscard]] std::size_t index_of(Rank r) const noexcept {
        const auto i = static_cast<std::size_t>(r);
        if (i < entries_.size() && entries_[i].first == r) return i;
        const auto it = std::lower_bound(
            entries_.begin(), entries_.end(), r,
            [](const value_type& e, Rank key) { return e.first < key; });
        return it != entries_.end() && it->first == r
                   ? static_cast<std::size_t>(it - entries_.begin())
                   : entries_.size();
    }

    std::vector<value_type> entries_;
};

/// Per-peer progress state inside an epoch.
struct PeerState {
    std::uint64_t access_id = 0;    ///< A_i toward this peer (origin side).
    std::uint64_t exposure_id = 0;  ///< E_i toward this peer (Exposure).
    bool granted = false;           ///< A_i <= g achieved (origin side).
    std::uint32_t ops_total = 0;
    std::uint32_t ops_done = 0;
    bool done_sent = false;        ///< Access/fence completion notification.
    bool done_recv = false;        ///< Exposure side: the origin's kDone arrived.
    bool unlock_sent = false;      ///< Lock epochs.
    bool unlock_acked = false;
    /// The live RMA calls recorded toward this peer, in record order. An
    /// op retires once it is issued, locally done and remotely done (its
    /// remote completion is always the last of the three): its slot is
    /// nulled, which frees the op and its payload, and the retired prefix
    /// is dropped as it grows (Rma::retire_op). The backlog ends at the
    /// newest op, so it holds ops [ops_total - pending.size(), ops_total)
    /// by RmaOp::backlog_seq. Every slot before `head` is retired; every
    /// op before `issue_cursor` has been issued. Each packet event toward
    /// this peer walks the backlog from the cursor; a flush or an abort
    /// walks it from the head; neither ever sees a retired op's payload.
    std::vector<OpPtr> pending;
    std::uint32_t head = 0;
    std::uint32_t issue_cursor = 0;
    /// Accumulate-family ordering toward this peer: count recorded (assigns
    /// RmaOp::acc_seq) and count whose data has reached the wire. An
    /// accumulate may only issue when acc_sent has caught up to every
    /// earlier accumulate (RmaOp::acc_seq == acc_sent + 1).
    std::uint32_t acc_recorded = 0;
    std::uint32_t acc_sent = 0;
};

// A lock-all epoch holds one PeerState per rank on every rank, so the job
// holds nranks^2 per open epoch: keep the cursors 32-bit.
static_assert(sizeof(void*) != 8 || sizeof(PeerState) <= 72,
              "PeerState grew");

/// Deduplicated registration-cache keys of an epoch's retired ops: the
/// one thing about them an abort still needs (it unpins every origin
/// buffer the epoch recorded). A few keys live inline, so an epoch that
/// reuses a handful of origin buffers — the common case — allocates
/// nothing here; further distinct keys spill to a sorted vector.
class KeySet {
public:
    void insert(std::uint64_t key) {
        const auto used = inline_.begin() + n_inline_;
        if (std::find(inline_.begin(), used, key) != used) return;
        if (n_inline_ < inline_.size()) {
            inline_[n_inline_++] = key;
            return;
        }
        const auto it = std::lower_bound(spill_.begin(), spill_.end(), key);
        if (it == spill_.end() || *it != key) spill_.insert(it, key);
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t i = 0; i < n_inline_; ++i) fn(inline_[i]);
        for (std::uint64_t key : spill_) fn(key);
    }

private:
    std::array<std::uint64_t, 4> inline_{};
    std::size_t n_inline_ = 0;
    std::vector<std::uint64_t> spill_;
};

/// An epoch object. Created inactive ("deferred"); the progress engine
/// passes it through the activation predicate before activating it.
struct Epoch {
    std::uint64_t seq = 0;  ///< Per-window creation order (activation is FIFO).
    EpochKind kind = EpochKind::Access;
    LockType lock_type = LockType::Shared;

    enum class Phase : std::uint8_t { Deferred, Active, Completed };
    Phase phase = Phase::Deferred;
    /// NBE_SUCCESS, or the error this epoch was aborted with (link failure
    /// toward one of its peers). Aborted epochs count as Completed; closing
    /// one returns an already-failed request.
    nbe::Status error = nbe::NBE_SUCCESS;
    bool closed_app = false;  ///< Close requested at application level.
    /// MVAPICH mode: a flush forces a lazily-deferred passive-target epoch
    /// to acquire its lock now instead of at the unlock call.
    bool flush_forced = false;

    /// Keyed by the group (GATS), the single target (lock) or every rank
    /// (lock-all). A fence names every rank but keys only the ranks it has
    /// recorded ops toward: the ranks without ops need no per-peer state
    /// (their ids live in WinState::fence_access, see Rma::activate).
    PeerMap<PeerState> peer;
    /// Ranks the epoch names: its group's size, every rank for a fence.
    std::size_t group_size = 0;
    /// Fence: the first closed drive sent the dones toward the ranks
    /// without ops (Rma::drive_epoch).
    bool idle_dones_sent = false;
    /// Origin keys of the ops that retired from the peers' backlogs.
    KeySet retired_keys;

    /// Positions inside WinState::open_app / WinState::active while this
    /// epoch is listed there (EpochList bookkeeping; kNoIdx otherwise).
    static constexpr std::size_t kNoIdx = static_cast<std::size_t>(-1);
    std::size_t idx_open_app = kNoIdx;
    std::size_t idx_active = kNoIdx;

    std::shared_ptr<rt::RequestState> close_req;

    // Virtual-time lifecycle stamps (observability: deferral latency,
    // close-to-completion interval, overlap ratio).
    sim::Time opened_at = 0;
    sim::Time activated_at = 0;
    sim::Time closed_at = 0;

    std::uint64_t fence_seq = 0;  ///< Ordinal among this window's fences.

    /// Peers this epoch still waits on. Set to group_size at activation;
    /// goes down exactly once per peer, when that peer reaches its terminal
    /// per-peer state: done_sent (Access, Fence), unlock_acked (Lock,
    /// LockAll), or arrival of the kDone carrying its exposure_id
    /// (Exposure). Completion tests this count instead of rescanning peers.
    std::size_t outstanding = 0;
    /// Peers not yet granted, split by node class, in epochs that MVAPICH
    /// batching (§VIII-B) holds (set at activation over the whole group,
    /// decremented by Rma::batch_granted). The batch rule reads these
    /// instead of walking the peers.
    std::size_t ungranted_inter = 0;
    std::size_t ungranted_intra = 0;

    [[nodiscard]] bool origin_side() const noexcept {
        return kind == EpochKind::Access || kind == EpochKind::Lock ||
               kind == EpochKind::LockAll || kind == EpochKind::Fence;
    }
    [[nodiscard]] bool exposure_side() const noexcept {
        return kind == EpochKind::Exposure || kind == EpochKind::Fence;
    }
    /// `r` is in the epoch's group (a fence names every rank).
    [[nodiscard]] bool names(Rank r) const noexcept {
        return kind == EpochKind::Fence || peer.contains(r);
    }
};

using EpochPtr = std::shared_ptr<Epoch>;

/// Order-preserving list of epochs with O(1) erase-by-value. Each listed
/// epoch stores its slot position through `IdxMember`; erase nulls the slot
/// (tombstone) and the list compacts — fixing the stored indices — once
/// tombstones outnumber live entries. Iteration skips tombstones in place,
/// preserving insertion order, which is semantically load-bearing here:
/// find_open/route_op search newest-first and traces must stay
/// byte-identical — so swap-remove (which reorders) is not an option.
template <std::size_t Epoch::* IdxMember>
class EpochList {
public:
    /// Forward iterator over live entries (const: the list does not hand
    /// out mutable slots; mutate epochs through the shared_ptr).
    class const_iterator {
    public:
        const_iterator(const std::vector<EpochPtr>* slots, std::size_t i) noexcept
            : slots_(slots), i_(i) {
            skip();
        }
        const EpochPtr& operator*() const noexcept { return (*slots_)[i_]; }
        const EpochPtr* operator->() const noexcept { return &(*slots_)[i_]; }
        const_iterator& operator++() noexcept {
            ++i_;
            skip();
            return *this;
        }
        bool operator==(const const_iterator& o) const noexcept {
            return i_ == o.i_;
        }
        bool operator!=(const const_iterator& o) const noexcept {
            return i_ != o.i_;
        }

    private:
        void skip() noexcept {
            while (i_ < slots_->size() && (*slots_)[i_] == nullptr) ++i_;
        }
        const std::vector<EpochPtr>* slots_;
        std::size_t i_;
    };

    void push_back(EpochPtr e) {
        e.get()->*IdxMember = slots_.size();
        slots_.push_back(std::move(e));
    }

    /// O(1): the epoch must currently be listed.
    void erase(const EpochPtr& e) {
        const std::size_t idx = e.get()->*IdxMember;
        slots_[idx] = nullptr;
        e.get()->*IdxMember = Epoch::kNoIdx;
        ++dead_;
        maybe_compact();
    }

    [[nodiscard]] std::size_t size() const noexcept {
        return slots_.size() - dead_;
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }

    [[nodiscard]] const_iterator begin() const noexcept {
        return const_iterator(&slots_, 0);
    }
    [[nodiscard]] const_iterator end() const noexcept {
        return const_iterator(&slots_, slots_.size());
    }

    // Raw slot access for newest-first searches (slots may be null).
    [[nodiscard]] std::size_t slot_count() const noexcept {
        return slots_.size();
    }
    [[nodiscard]] const EpochPtr& slot(std::size_t i) const noexcept {
        return slots_[i];
    }

    /// Calls fn(e), in order, for each epoch listed when the walk starts
    /// and still listed when its turn comes. fn may erase and append
    /// epochs: erased slots stay tombstones until the walk ends, and
    /// appended epochs are past its end.
    template <typename Fn>
    void walk(Fn&& fn) {
        struct Pin {
            EpochList& l;
            ~Pin() {
                --l.walking_;
                l.maybe_compact();
            }
        } pin{*this};
        ++walking_;
        for (std::size_t i = 0, n = slots_.size(); i < n; ++i) {
            if (slots_[i] == nullptr) continue;
            const EpochPtr e = slots_[i];  // fn may erase the slot
            fn(e);
        }
    }

private:
    void maybe_compact() {
        if (walking_ != 0) return;
        if (dead_ <= slots_.size() - dead_ || slots_.size() < 16) return;
        std::size_t live = 0;
        for (auto& e : slots_) {
            if (e == nullptr) continue;
            e.get()->*IdxMember = live;
            slots_[live++] = std::move(e);
        }
        slots_.resize(live);
        dead_ = 0;
    }

    std::vector<EpochPtr> slots_;
    std::size_t dead_ = 0;
    std::uint32_t walking_ = 0;  ///< open walk() calls; compaction waits
};

/// A pending (nonblocking) flush. Stamped with the age of the RMA call that
/// immediately precedes it; every younger op completion decrements the
/// counter; the flush completes when the counter reaches zero (paper
/// Section VII-C).
struct FlushReq {
    std::shared_ptr<rt::RequestState> req;
    Rank target = -1;  ///< -1: all targets.
    std::uint64_t age_limit = 0;
    std::uint32_t pending = 0;
    bool local_only = false;

    /// `op` is in this flush's scope: toward its target (any, for -1) and
    /// no younger than the call that preceded the flush.
    [[nodiscard]] bool covers(const RmaOp& op) const noexcept {
        return (target < 0 || target == op.target) && op.age <= age_limit;
    }
};

/// Target-side passive-target lock state for one window (FIFO-fair).
class LockManager {
public:
    struct Waiter {
        Rank origin;
        LockType type;
    };

    /// Returns true if the lock was granted immediately; otherwise the
    /// request is queued.
    bool request(Rank origin, LockType type) {
        if (queue_.empty() && compatible(type)) {
            grant(origin, type);
            return true;
        }
        queue_.push_back(Waiter{origin, type});
        return false;
    }

    /// Releases origin's hold, then grants the waiters that became
    /// compatible, in queue order, calling granted(waiter) for each.
    template <typename Fn>
    void release(Rank origin, Fn&& granted) {
        if (excl_holder_ == origin) {
            excl_holder_ = -1;
        } else {
            --shared_count_;
        }
        while (!queue_.empty() && compatible(queue_.front().type)) {
            const Waiter w = queue_.front();
            queue_.pop_front();
            grant(w.origin, w.type);
            granted(w);
        }
    }

    [[nodiscard]] bool held() const noexcept {
        return excl_holder_ >= 0 || shared_count_ > 0;
    }
    [[nodiscard]] Rank exclusive_holder() const noexcept { return excl_holder_; }
    [[nodiscard]] int shared_count() const noexcept { return shared_count_; }
    [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }

private:
    [[nodiscard]] bool compatible(LockType type) const noexcept {
        if (excl_holder_ >= 0) return false;
        return type == LockType::Shared || shared_count_ == 0;
    }
    void grant(Rank origin, LockType type) {
        if (type == LockType::Exclusive) {
            excl_holder_ = origin;
        } else {
            ++shared_count_;
        }
    }

    Rank excl_holder_ = -1;
    int shared_count_ = 0;
    std::deque<Waiter> queue_;
};

}  // namespace nbe::rma
