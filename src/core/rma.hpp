// The RMA progress engine — the paper's primary contribution.
//
// One Rma object serves a whole simulated job; it keeps independent state
// per (rank, window) and registers a packet handler with each rank. Packet
// events do all the progress: the engine is the autonomously progressing
// network side (NIC + async progress) that the paper's latency analysis
// assumes, and application calls only open, record and close.
//
// Responsibilities (paper sections in parentheses):
//   * deferred-epoch queue + activation predicate, rules 1-5 (§VI-A)
//   * the four reorder info flags and their fence/lock-all exclusions (§VI-B)
//   * O(1) epoch matching via the per-pair ⟨a, e, g⟩ triple (§VII-B)
//   * request objects for epoch opening/closing and flushes, with flush
//     age-stamping (§VII-C)
//   * the 7 steps of the progress loop (§VII-D), each run by the event
//     that makes it possible: ack events retire transfers and the
//     fabric's credit timeline posts them (steps 1/2), completions and activations follow the
//     packet that allows them (3/7), deliveries post intranode transfers
//     and consume notifications (4/5), lock packets serve the lock
//     backlog (6)
//   * the three operating modes: MVAPICH (lazy), New (blocking),
//     New nonblocking (§VIII).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/epoch.hpp"
#include "core/types.hpp"
#include "obs/obs.hpp"
#include "rt/world.hpp"
#include "sim/pool.hpp"

namespace nbe::rma {

using rt::Mode;
using rt::Request;

/// Per-rank engine statistics (tests and ablation benches read these).
struct RmaStats {
    std::uint64_t epochs_opened = 0;
    std::uint64_t epochs_activated = 0;
    std::uint64_t epochs_completed = 0;
    std::uint64_t epochs_deferred_at_open = 0;  ///< could not activate at open
    std::uint64_t ops_issued = 0;
    std::uint64_t bytes_put = 0;
    std::uint64_t dones_sent = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t max_active_epochs = 0;
    std::uint64_t max_deferred_epochs = 0;
    std::uint64_t epochs_aborted = 0;   ///< aborted by a link failure
    std::uint64_t protocol_errors = 0;  ///< malformed/stale packets dropped
    std::uint64_t acc_rndv = 0;  ///< accumulates routed through rendezvous
    /// Lock grants deferred because a closed-but-incomplete exposure-side
    /// epoch was still draining on the target window.
    std::uint64_t lock_grants_held = 0;
    /// Origin side: lock grants received, one per lock epoch and target.
    std::uint64_t lock_grants_received = 0;
};

class Rma {
public:
    explicit Rma(rt::World& world);
    ~Rma();

    Rma(const Rma&) = delete;
    Rma& operator=(const Rma&) = delete;

    /// Creates (rank-locally) the state for the next window id. Collective
    /// by convention: every rank must create windows in the same order with
    /// the same size. Returns the window id.
    std::uint32_t create_window(Rank r, std::size_t bytes, const WinInfo& info);

    [[nodiscard]] Mode mode() const noexcept { return mode_; }
    [[nodiscard]] rt::World& world() noexcept { return world_; }

    // ----- synchronization API (all return immediately; the Request of an
    // opening routine is a dummy completed request, per §VII-C) -----
    Request istart(Rank r, std::uint32_t win, std::span<const Rank> group);
    Request icomplete(Rank r, std::uint32_t win);
    Request ipost(Rank r, std::uint32_t win, std::span<const Rank> group);
    Request iwait(Rank r, std::uint32_t win);
    bool test_exposure(Rank r, std::uint32_t win);
    Request ifence(Rank r, std::uint32_t win, unsigned asserts);
    Request ilock(Rank r, std::uint32_t win, LockType type, Rank target);
    Request iunlock(Rank r, std::uint32_t win, Rank target);
    Request ilock_all(Rank r, std::uint32_t win);
    Request iunlock_all(Rank r, std::uint32_t win);
    Request iflush(Rank r, std::uint32_t win, Rank target, bool local_only);
    /// The nonblocking synchronizations exist only in the redesigned
    /// engine: in MVAPICH mode, calling one (`what`) is misuse.
    void require_nonblocking(Rank r, std::uint32_t win, const char* what);

    // ----- communication API (target == rank allowed). Returns a Request
    // only for the request-based variants (rput/rget/...). -----
    Request post_op(Rank r, std::uint32_t win, OpKind kind, Rank target,
                    std::size_t target_disp, const void* origin_in,
                    void* origin_out, std::size_t count, TypeId type,
                    ReduceOp rop, bool request_based);

    // ----- local window access -----
    [[nodiscard]] std::byte* win_base(Rank r, std::uint32_t win);
    [[nodiscard]] std::size_t win_size(Rank r, std::uint32_t win) const;
    [[nodiscard]] const RmaStats& stats(Rank r) const;

    /// Counts one opportunistic progress call (§IV-A) for a rank; every
    /// application-level MPI call makes one. It drives nothing: each step
    /// of the §VII-D loop already runs in the packet event that enables it.
    void sweep(Rank r);

    // ----- introspection for tests -----
    [[nodiscard]] std::size_t deferred_count(Rank r, std::uint32_t win) const;
    [[nodiscard]] std::size_t active_count(Rank r, std::uint32_t win) const;
    /// Fence seqs with fence-done counts still held for this window.
    [[nodiscard]] std::size_t fence_dones_size(Rank r, std::uint32_t win) const;

    /// Test hook: epoch lifecycle transitions, fired just after an epoch
    /// enters the deferred queue (Open), is marked closed at application
    /// level (Close), and just *before* it joins/leaves the active set
    /// (Activate/Complete) — so an observer checking the activation
    /// predicate sees the same active-set state can_activate saw. Aborted
    /// epochs fire Complete from whichever phase they die in. Property
    /// tests replay these events against a shadow model of §VI-A rule 4;
    /// production code never sets this.
    struct EpochEvent {
        enum class What { Open, Close, Activate, Complete };
        What what = What::Open;
        Rank rank = -1;
        std::uint32_t win = 0;
        std::uint64_t seq = 0;
        EpochKind kind = EpochKind::Access;
        bool origin_side = false;
        bool closed_app = false;
        bool flush_forced = false;
    };
    using EpochObserver = std::function<void(const EpochEvent&)>;
    void set_epoch_observer(EpochObserver cb) {
        epoch_observer_ = std::move(cb);
    }

    /// Structured diagnostic state: one "rma.epoch" record per epoch that
    /// is still open (deferred or active) anywhere in the job.
    [[nodiscard]] std::vector<obs::Record> diagnostic_records() const;

    /// Human-readable rendering of diagnostic_records(); registered as an
    /// engine deadlock diagnostic.
    [[nodiscard]] std::string diagnostic_dump() const;

private:
    // RMA packet kinds (offset past rt::World::kRmaKindBase).
    enum PacketKind : std::uint32_t {
        kGrant = 100,      // exposure post / lock grant: one-sided write of g
        kDone = 101,       // access-epoch completion notification
        kLockReq = 102,
        kUnlock = 103,
        kUnlockAck = 104,
        kData = 105,       // put / accumulate / get_accumulate / fao / cas
        kGetReq = 106,
        kGetReply = 107,
        kFenceDone = 108,
        kAccRts = 109,     // large-accumulate rendezvous (needs target buffer)
        kAccCts = 110,
        kLockGrant = 111,  // lock-manager acquisition, distinct from kGrant
    };

    /// Per (rank, window) middleware state.
    struct WinState {
        std::uint32_t id = 0;
        Rank rank = -1;
        WinInfo info;
        std::vector<std::byte> mem;

        // Matching triples, indexed by remote rank r (paper §VII-B). These
        // pair *exposure-style* epochs (fence / GATS) only; lock epochs
        // acquire through the target's lock manager on a separate packet
        // kind, so a lock can never consume — or be satisfied by — an
        // exposure credit meant for a fence or a post. These arrays and
        // fence_access are sized at the window's first fence or GATS use
        // (Rma::size_counters), so a lock-only window holds none; an
        // absent counter reads 0.
        std::vector<std::uint64_t> a;  // accesses requested toward r
        std::vector<std::uint64_t> e;  // exposures/grants opened toward r
        std::vector<std::uint64_t> g;  // accesses granted by r (written remotely)
        // Highest fence seq for which rank r's fence-done arrived.
        std::vector<std::uint64_t> fence_done_from;
        [[nodiscard]] std::uint64_t granted_by(Rank r) const {
            return g.empty() ? 0 : g[static_cast<std::size_t>(r)];
        }
        // The active fence's access id toward r, set at its activation. A
        // rank enters the fence's peer map only at its first op, maybe
        // after a GATS epoch coexisting with the open fence has moved
        // a[r]: it reads its id here (fence adjacency keeps one fence
        // active).
        std::vector<std::uint64_t> fence_access;
        // Active lock and exposure epochs that a peer still owes a control
        // packet (kLockGrant, kUnlockAck or kDone), in activation order; an
        // epoch leaves when `outstanding` (the peers that owe) reaches 0.
        // Grants come back per pair in request order, so kLockGrant takes
        // the oldest ungranted lock epoch; kUnlockAck and kDone name their
        // epoch. An aborted lock epoch stays while a peer can still reach
        // this rank, until it has granted and acked (see retire_epoch).
        std::vector<EpochPtr> awaiting;

        std::uint64_t next_epoch_seq = 1;
        std::uint64_t next_op_age = 1;
        std::uint64_t next_op_id = 1;
        std::uint64_t next_fence_seq = 1;

        std::deque<EpochPtr> deferred;
        EpochList<&Epoch::idx_active> active;
        EpochList<&Epoch::idx_open_app> open_app;  // not yet closed at app level

        LockManager lockmgr;
        // Lock grants the manager already awarded but that must not reach
        // origins that are already past a closed exposure-side epoch still
        // draining here: their passive traffic could overtake a slower
        // fence/GATS origin's data. Flushed on exposure completion.
        std::vector<Rank> held_lock_grants;
        // Fence-dones received per fence seq, as (seq, count); an entry is
        // erased when its fence epoch retires. A peer runs at most one
        // fence ahead, so only a couple of entries are ever live.
        std::vector<std::pair<std::uint64_t, std::uint32_t>> fence_dones;
        // The active fence epoch, if any: fence adjacency (§VI-B) keeps a
        // fence deferred until its predecessor completes, so at most one
        // is active per window.
        EpochPtr fence;
        std::unordered_map<std::uint64_t, std::pair<EpochPtr, OpPtr>> pending_replies;
        std::unordered_map<std::uint64_t, std::pair<EpochPtr, OpPtr>> pending_acc_rndv;
        std::vector<FlushReq> flushes;

        // Slab pools recycling the per-op / per-request shared state. Used
        // with std::allocate_shared so the control block and the object land
        // in one pooled block; steady-state RMA traffic then allocates
        // nothing per op (ISSUE PR4).
        std::shared_ptr<sim::BlockPool> op_pool =
            sim::BlockPool::create("rma.op");
        std::shared_ptr<sim::BlockPool> req_pool =
            sim::BlockPool::create("rma.req");
    };

    WinState& ws(Rank r, std::uint32_t win);
    const WinState& ws(Rank r, std::uint32_t win) const;
    /// Sizes w's a, e, g, fence_done_from and fence_access to the job at
    /// their first use.
    void size_counters(WinState& w) const;

    // ---- epoch lifecycle ----
    // The application opens and closes an epoch; the engine activates and
    // retires it. An epoch sits in WinState::open_app until the application
    // closes it, and in exactly one of WinState::deferred and
    // WinState::active until retire_epoch takes it out.
    EpochPtr open_epoch(WinState& w, EpochKind kind, LockType lt,
                        std::span<const Rank> peers);
    /// The one close path. A vacuous close (fence NOPRECEDE) skips the
    /// barrier exchange and retires the epoch at once.
    Request close_epoch(WinState& w, const EpochPtr& e, bool vacuous = false);
    /// The closing entry points other than fence: the newest open epoch of
    /// `kind` (toward `target` for Lock) is closed; none is misuse `what`.
    Request close_app(Rank r, std::uint32_t win, EpochKind kind, Rank target,
                      const char* what);
    void activation_scan(WinState& w);
    [[nodiscard]] bool can_activate(const WinState& w, const Epoch& e) const;
    void activate(WinState& w, const EpochPtr& e);
    /// Advances an active epoch in full: every internode backlog, then
    /// every intranode one, then the close notifications; completes it
    /// when done. Runs only at activation (the §VI replay), at close, and
    /// when a grant releases an MVAPICH batch.
    void drive_epoch(WinState& w, EpochPtr e);
    /// drive_epoch narrowed to peer `t`: a packet event changes state
    /// toward one peer only, so it drives that peer only.
    void drive_peer(WinState& w, EpochPtr e, Rank t, PeerState& ps);
    void close_notify_peer(WinState& w, Epoch& e, Rank t, PeerState& ps);
    void send_fence_done(WinState& w, Epoch& e, Rank t);
    void notify_epoch(EpochEvent::What what, const WinState& w,
                      const Epoch& e);
    void complete_if_done(WinState& w, const EpochPtr& e);
    /// The one way an epoch ends, from whichever list holds it: completed
    /// (`s == NBE_SUCCESS`) or aborted with `s`. Only an abort fails and
    /// forgets the epoch's ops, settles it in WinState::awaiting and
    /// hands back the locks it holds or has requested on healthy peers.
    void retire_epoch(WinState& w, EpochPtr e, Status s);
    /// Fails the requests of an aborted epoch's ops and of the flushes
    /// counting them, and lets go of their payloads and reply routes.
    void abort_ops(WinState& w, const Epoch& e, Status s);
    EpochPtr find_open(WinState& w, EpochKind kind, Rank target = -1);
    /// find_open, with a missing epoch reported as misuse `what`.
    EpochPtr find_open_or_misuse(WinState& w, EpochKind kind, Rank target,
                                 const char* what);
    /// Every API misuse ends here: recorded as a "check.epoch" error (when
    /// the checker runs), then thrown as std::logic_error.
    [[noreturn]] void misuse(const WinState& w, const char* what,
                             std::string detail);
    EpochPtr route_op(WinState& w, Rank target);

    // ---- op issue & completion ----
    void record_op(WinState& w, const EpochPtr& e, const OpPtr& op);
    /// Peer `t`'s state in `e`; a fence adds `t` to its map here, at its
    /// first op, with the fence's ids toward `t` if it is active already.
    PeerState& op_peer(const WinState& w, Epoch& e, Rank t);
    /// Issues every issuable op of one peer's backlog from its cursor,
    /// skipping held ones (see may_issue_op).
    void issue_pending(WinState& w, const EpochPtr& e, PeerState& ps);
    /// MVAPICH mode holds this epoch's non-eager ops for close-time
    /// batching (§VIII-B).
    [[nodiscard]] bool mvapich_batches(const Epoch& e) const;
    [[nodiscard]] bool mvapich_batch_ready(const WinState& w, const Epoch& e,
                                           Rank t) const;
    [[nodiscard]] bool may_issue_op(const WinState& w, const Epoch& e,
                                    const RmaOp& op) const;
    void issue_op(WinState& w, const EpochPtr& e, const OpPtr& op);
    void send_op_data(WinState& w, const EpochPtr& e, const OpPtr& op);
    /// `op` is a raw pointer so the packet-ack capture stays within the
    /// SmallFn inline budget; the EpochPtr owns the op through its peer's
    /// `pending` backlog, which keeps it alive until this call retires it.
    void on_op_remote_complete(WinState& w, const EpochPtr& e, RmaOp* op);
    /// Takes a finished op out of its peer's backlog (freeing it and its
    /// payload unless another owner holds it) and keeps its origin key for
    /// a later abort. `op` must not be used afterwards.
    void retire_op(Epoch& e, PeerState& ps, const RmaOp& op);
    void note_op_completion_for_flushes(WinState& w, const RmaOp& op,
                                        bool local_event);
    /// A completed local-only flush licenses the app to reuse the origin
    /// buffers of every op it covered, possibly before the wire has read
    /// them: copy those borrowed payloads into owned storage first.
    void detach_borrowed_for_flush(WinState& w, const FlushReq& f);

    // ---- packet handling (the autonomous progress side) ----
    void handle_packet(Rank r, net::Packet&& p);
    void on_grant(WinState& w, Rank from, std::uint64_t value);
    /// Marks origin-side peer `t` granted (exposure or lock grant) and
    /// drives it.
    void grant_peer(WinState& w, const EpochPtr& e, Rank t, PeerState& ps);
    /// MVAPICH batching: counts peer `t`'s grant off `e`'s ungranted
    /// counters; true when it readies a closed epoch's last internode (or
    /// intranode) peer, which releases that whole held batch (§VIII-B).
    bool batch_granted(const WinState& w, Epoch& e, Rank t);
    void on_done(WinState& w, Rank from, std::uint64_t access_id);
    /// The oldest epoch in w.awaiting owed packet `kind` by `from` (kDone
    /// naming exposure id `value`, kLockGrant, or kUnlockAck naming seq
    /// `value`), with `from`'s state in it; or nulls.
    static std::pair<EpochPtr, PeerState*> awaited(const WinState& w,
                                                   Rank from, PacketKind kind,
                                                   std::uint64_t value);

    void on_lock_req(WinState& w, Rank from, LockType type);
    void on_lock_grant(WinState& w, Rank from);
    /// `seq` names the origin's epoch; the ack echoes it.
    void on_unlock(WinState& w, Rank from, std::uint64_t seq);
    void on_unlock_ack(WinState& w, Rank from, std::uint64_t seq);
    /// Sends epoch `e`'s unlock toward `t`.
    void send_unlock(WinState& w, const Epoch& e, Rank t, PeerState& ps);
    void on_data(WinState& w, net::Packet&& p);
    void on_get_req(WinState& w, net::Packet&& p);
    void on_get_reply(WinState& w, net::Packet&& p);
    void on_fence_done(WinState& w, Rank from, std::uint64_t fence_seq);
    void on_acc_rts(WinState& w, net::Packet&& p);
    void on_acc_cts(WinState& w, net::Packet&& p);
    /// True when some closed-but-incomplete exposure-side epoch is still
    /// draining on this window AND `from` is already past it (its own done
    /// marker arrived) — i.e. the requester expects MPI separation between
    /// that epoch and its lock. An origin that has not closed the epoch is
    /// interleaving permissively and must not be held (deadlock freedom).
    [[nodiscard]] bool grant_must_wait(const WinState& w, Rank from) const;
    /// Sends a lock grant the manager awarded, or holds it until the
    /// draining exposure epochs complete (MPI separation: passive-target
    /// traffic may not overtake active-target data still in flight).
    void queue_or_send_lock_grant(WinState& w, Rank to);
    void flush_held_lock_grants(WinState& w);
    void send_control(Rank src, Rank dst, std::uint32_t kind, std::uint32_t win,
                      std::uint64_t h1, std::uint64_t h2 = 0);

    // ---- fault handling ----
    /// Reacts to a directed link failure: the pair is treated as partitioned
    /// for RMA purposes, so epochs involving the other endpoint abort on
    /// both ranks.
    void on_link_down(Rank src, Rank dst);
    void abort_epochs_toward(Rank r, Rank peer, Status s);

    // ---- semantics checking (nbe::check) ----
    /// Target-side phase attribution for arriving RMA data: the oldest
    /// active exposure-side epoch naming `origin`. Exact, not heuristic:
    /// an origin only issues after this target's grant, and the grant for
    /// exposure N+1 is only sent once exposure N completed here — so data
    /// applied now can only belong to that oldest matching epoch. Returns
    /// 0 for passive-target traffic (no exposure epoch; the checker
    /// attributes it to the origin's lock session instead).
    [[nodiscard]] std::uint64_t exposure_phase_key(const WinState& w,
                                                   Rank origin) const;
    /// Paper §VIII-A: accumulates strictly above 8 KB go through the
    /// internal rendezvous (target-side intermediate buffer); at or below
    /// they are sent eagerly like puts.
    [[nodiscard]] bool acc_needs_rndv(std::size_t bytes) const noexcept {
        return bytes > kAccRndvThreshold;
    }

    /// Non-null only while tracing is enabled for this job.
    [[nodiscard]] obs::Tracer* tracer() const noexcept;

    rt::World& world_;
    Mode mode_;
    EpochObserver epoch_observer_;
    std::vector<Rank> all_ranks_;  ///< [0, nranks), reused by fence/lock_all
    std::vector<std::vector<std::unique_ptr<WinState>>> wins_;  // [rank][win]
    std::vector<RmaStats> stats_;
    /// Eager/rendezvous split for the zero-copy datapath: payloads at or
    /// above this borrow the origin buffer (no staging copy; MPI's
    /// origin-buffer rule keeps the bytes stable), smaller ones are
    /// eagerly staged so the app can reuse its buffer immediately.
    static constexpr std::size_t kZeroCopyThreshold = 16384;
    /// Paper: accumulates above 8 KB go through the rendezvous.
    static constexpr std::size_t kAccRndvThreshold = 8192;
    /// Retired backlog slots dropped at once, at the least (retire_op).
    static constexpr std::uint32_t kMinBacklogTrim = 32;
    std::uint64_t diag_id_ = 0;

    // Observability: derived per-epoch/per-op histograms, cached from the
    // registry at construction iff obs is active for the job (null -> the
    // hot paths skip all derived-metric work).
    obs::Obs* obs_ = nullptr;
    obs::Histogram* h_deferral_ = nullptr;          ///< open -> activate, ns
    obs::Histogram* h_active_ = nullptr;            ///< activate -> complete, ns
    obs::Histogram* h_close_to_complete_ = nullptr; ///< app close -> complete, ns
    obs::Histogram* h_overlap_ = nullptr;           ///< epoch overlap ratio 0..1
    obs::Histogram* h_op_queue_ = nullptr;          ///< op record -> issue, ns
    obs::Histogram* h_op_transfer_ = nullptr;       ///< op issue -> retire, ns
};

}  // namespace nbe::rma
