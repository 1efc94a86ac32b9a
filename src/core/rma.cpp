#include "core/rma.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/datatype.hpp"

namespace nbe::rma {

namespace {

std::uint64_t pack_type_rop(TypeId t, ReduceOp r) {
    return (static_cast<std::uint64_t>(t) << 8) | static_cast<std::uint64_t>(r);
}
TypeId unpack_type(std::uint64_t v) {
    return static_cast<TypeId>((v >> 8) & 0xff);
}
ReduceOp unpack_rop(std::uint64_t v) { return static_cast<ReduceOp>(v & 0xff); }

/// Trace-event name for the application call that opens an epoch of `k`.
const char* open_event_name(EpochKind k) {
    switch (k) {
        case EpochKind::Access: return "start";
        case EpochKind::Exposure: return "post";
        case EpochKind::Lock: return "lock";
        case EpochKind::LockAll: return "lock_all";
        case EpochKind::Fence: return "fence.open";
    }
    return "open";
}

/// Trace-event name for the application call that closes an epoch of `k`.
const char* close_event_name(EpochKind k) {
    switch (k) {
        case EpochKind::Access: return "complete";
        case EpochKind::Exposure: return "wait";
        case EpochKind::Lock: return "unlock";
        case EpochKind::LockAll: return "unlock_all";
        case EpochKind::Fence: return "fence.close";
    }
    return "close";
}

/// Name of the activate->complete span for an epoch of `k`.
const char* span_event_name(EpochKind k) {
    switch (k) {
        case EpochKind::Access: return "epoch.access";
        case EpochKind::Exposure: return "epoch.exposure";
        case EpochKind::Lock: return "epoch.lock";
        case EpochKind::LockAll: return "epoch.lock_all";
        case EpochKind::Fence: return "epoch.fence";
    }
    return "epoch";
}

std::int64_t i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

/// One RmaStats member as the metrics registry publishes it, per rank
/// ("rma.rank<r>.<name>") and for the job ("rma.total.<name>").
struct StatField {
    const char* name;
    std::uint64_t RmaStats::*member;
    bool gauge;  ///< A high-water mark: a gauge, totalled by max, not sum.
};

constexpr StatField kStatFields[] = {
    {"epochs_opened", &RmaStats::epochs_opened, false},
    {"epochs_activated", &RmaStats::epochs_activated, false},
    {"epochs_completed", &RmaStats::epochs_completed, false},
    {"epochs_deferred_at_open", &RmaStats::epochs_deferred_at_open, false},
    {"ops_issued", &RmaStats::ops_issued, false},
    {"bytes_put", &RmaStats::bytes_put, false},
    {"dones_sent", &RmaStats::dones_sent, false},
    {"sweeps", &RmaStats::sweeps, false},
    {"epochs_aborted", &RmaStats::epochs_aborted, false},
    {"protocol_errors", &RmaStats::protocol_errors, false},
    {"acc_rndv", &RmaStats::acc_rndv, false},
    {"lock_grants_held", &RmaStats::lock_grants_held, false},
    {"lock_grants_received", &RmaStats::lock_grants_received, false},
    {"max_active_epochs", &RmaStats::max_active_epochs, true},
    {"max_deferred_epochs", &RmaStats::max_deferred_epochs, true},
};

void publish_stats(obs::Registry& reg, const std::string& prefix,
                   const RmaStats& s) {
    for (const StatField& f : kStatFields) {
        if (f.gauge) {
            reg.gauge(prefix + f.name).set(static_cast<double>(s.*f.member));
        } else {
            reg.counter(prefix + f.name).set(s.*f.member);
        }
    }
}

[[nodiscard]] bool is_lock(EpochKind k) {
    return k == EpochKind::Lock || k == EpochKind::LockAll;
}

/// Calls fn(op) for every live (unretired) op of one backlog.
template <typename Fn>
void for_each_live_op(const PeerState& ps, Fn&& fn) {
    for (std::size_t i = ps.head; i < ps.pending.size(); ++i) {
        if (ps.pending[i] != nullptr) fn(*ps.pending[i]);
    }
}

/// Calls fn(op) for every live op `e` holds toward `target`, or toward
/// any target when `target` is -1: one peer's backlog, or each.
template <typename Fn>
void for_each_op(const Epoch& e, Rank target, Fn&& fn) {
    if (target >= 0) {
        const auto it = e.peer.find(target);
        if (it != e.peer.end()) for_each_live_op(it->second, fn);
        return;
    }
    for (const auto& [t, ps] : e.peer) for_each_live_op(ps, fn);
}

/// Calls fn(t, ps) for each rank t in [0, n), ascending: ps is t's state
/// in `peers` (a fence's map, which holds its op targets only), or null.
template <typename Map, typename Fn>
void for_each_rank(Map& peers, std::size_t n, Fn&& fn) {
    auto it = peers.begin();
    for (std::size_t i = 0; i < n; ++i) {
        const auto t = static_cast<Rank>(i);
        auto* ps = it != peers.end() && it->first == t ? &(it++)->second
                                                       : nullptr;
        fn(t, ps);
    }
}

}  // namespace

Rma::Rma(rt::World& world)
    : world_(world),
      mode_(world.config().mode),
      wins_(static_cast<std::size_t>(world.nranks())),
      stats_(static_cast<std::size_t>(world.nranks())) {
    all_ranks_.resize(static_cast<std::size_t>(world_.nranks()));
    for (Rank r = 0; r < world_.nranks(); ++r) {
        all_ranks_[static_cast<std::size_t>(r)] = r;
        world_.set_rma_handler(r, [this, r](net::Packet&& p) {
            handle_packet(r, std::move(p));
        });
    }
    world_.subscribe_link_down(
        [this](Rank src, Rank dst) { on_link_down(src, dst); });
    diag_id_ = world_.engine().add_diagnostic([this] { return diagnostic_dump(); });

    obs_ = &world_.obs();
    if (obs_->active()) {
        auto& m = obs_->metrics();
        h_deferral_ = &m.histogram("rma.epoch_deferral_ns");
        h_active_ = &m.histogram("rma.epoch_active_ns");
        h_close_to_complete_ = &m.histogram("rma.epoch_close_to_complete_ns");
        h_overlap_ = &m.histogram("rma.epoch_overlap_ratio",
                                  obs::HistogramOptions{0.0625, 2.0, 5});
        h_op_queue_ = &m.histogram("rma.op_queue_ns");
        h_op_transfer_ = &m.histogram("rma.op_transfer_ns");
    }
    obs_->metrics().add_publisher([this](obs::Registry& reg) {
        RmaStats tot;
        for (Rank r = 0; r < world_.nranks(); ++r) {
            const RmaStats& s = stats_[static_cast<std::size_t>(r)];
            publish_stats(reg, "rma.rank" + std::to_string(r) + ".", s);
            for (const StatField& f : kStatFields) {
                tot.*f.member = f.gauge ? std::max(tot.*f.member, s.*f.member)
                                        : tot.*f.member + s.*f.member;
            }
        }
        publish_stats(reg, "rma.total.", tot);
    });
}

obs::Tracer* Rma::tracer() const noexcept {
    return obs_ != nullptr && obs_->tracer().enabled() ? &obs_->tracer()
                                                       : nullptr;
}

Rma::~Rma() { world_.engine().remove_diagnostic(diag_id_); }

std::uint32_t Rma::create_window(Rank r, std::size_t bytes, const WinInfo& info) {
    auto& per_rank = wins_.at(static_cast<std::size_t>(r));
    auto w = std::make_unique<WinState>();
    w->id = static_cast<std::uint32_t>(per_rank.size());
    w->rank = r;
    w->info = info;
    w->mem.assign(bytes, std::byte{0});
    per_rank.push_back(std::move(w));
    if (auto* ck = world_.checker()) {
        ck->add_window(r, per_rank.back()->id, bytes);
    }
    return per_rank.back()->id;
}

Rma::WinState& Rma::ws(Rank r, std::uint32_t win) {
    return *wins_.at(static_cast<std::size_t>(r)).at(win);
}
const Rma::WinState& Rma::ws(Rank r, std::uint32_t win) const {
    return *wins_.at(static_cast<std::size_t>(r)).at(win);
}
void Rma::size_counters(WinState& w) const {
    if (!w.g.empty()) return;
    const auto n = static_cast<std::size_t>(world_.nranks());
    w.a.assign(n, 0);
    w.e.assign(n, 0);
    w.g.assign(n, 0);
    w.fence_done_from.assign(n, 0);
    w.fence_access.assign(n, 0);
}

std::byte* Rma::win_base(Rank r, std::uint32_t win) { return ws(r, win).mem.data(); }
std::size_t Rma::win_size(Rank r, std::uint32_t win) const {
    return ws(r, win).mem.size();
}
const RmaStats& Rma::stats(Rank r) const {
    return stats_.at(static_cast<std::size_t>(r));
}
std::size_t Rma::deferred_count(Rank r, std::uint32_t win) const {
    return ws(r, win).deferred.size();
}
std::size_t Rma::active_count(Rank r, std::uint32_t win) const {
    return ws(r, win).active.size();
}
std::size_t Rma::fence_dones_size(Rank r, std::uint32_t win) const {
    return ws(r, win).fence_dones.size();
}

// =================================================================== epochs

EpochPtr Rma::open_epoch(WinState& w, EpochKind kind, LockType lt,
                         std::span<const Rank> peers) {
    // Fence/lock-all groups and single lock targets arrive sorted; only a
    // GATS group may need a sorted copy.
    std::vector<Rank> sorted;
    if (!std::is_sorted(peers.begin(), peers.end())) {
        sorted.assign(peers.begin(), peers.end());
        std::sort(sorted.begin(), sorted.end());
        peers = sorted;
    }
    auto e = std::make_shared<Epoch>();
    e->seq = w.next_epoch_seq++;
    e->kind = kind;
    e->lock_type = lt;
    e->opened_at = world_.engine().now();
    e->group_size = peers.size();
    if (kind == EpochKind::Fence) {
        e->fence_seq = w.next_fence_seq++;  // its peers join at their ops
    } else {
        e->peer.build(peers);
    }

    auto& st = stats_[static_cast<std::size_t>(w.rank)];
    ++st.epochs_opened;
    w.open_app.push_back(e);
    if (auto* t = tracer()) {
        t->instant(w.rank, "epoch", open_event_name(kind),
                   {{"win", w.id},
                    {"seq", i64(e->seq)},
                    {"peers", i64(e->group_size)}});
    }
    if (auto* ck = world_.checker()) {
        ck->epoch_open(w.rank, w.id, kind, e->seq, peers);
    }

    // An epoch opened toward an already-dead peer can never complete: abort
    // it at creation so its close returns an error instead of deadlocking.
    auto& fabric = world_.fabric();
    for (Rank p : peers) {
        if (p != w.rank &&
            (fabric.link_failed(w.rank, p) || fabric.link_failed(p, w.rank))) {
            retire_epoch(w, e, NBE_ERR_LINK_DOWN);
            return e;
        }
    }

    w.deferred.push_back(e);
    st.max_deferred_epochs =
        std::max<std::uint64_t>(st.max_deferred_epochs, w.deferred.size());
    notify_epoch(EpochEvent::What::Open, w, *e);
    activation_scan(w);
    if (e->phase == Epoch::Phase::Deferred) ++st.epochs_deferred_at_open;
    return e;
}

Request Rma::close_epoch(WinState& w, const EpochPtr& e, bool vacuous) {
    if (e->closed_app) {
        misuse(w, "epoch closed twice",
               std::string(to_string(e->kind)) + " seq " +
                   std::to_string(e->seq));
    }
    if (vacuous && std::any_of(e->peer.begin(), e->peer.end(),
                               [](const auto& p) {
                                   return p.second.ops_total != 0;
                               })) {
        misuse(w, "fence NOPRECEDE with RMA calls",
               "seq " + std::to_string(e->seq));
    }
    e->closed_app = true;
    e->closed_at = world_.engine().now();
    w.open_app.erase(e);
    notify_epoch(EpochEvent::What::Close, w, *e);
    if (auto* t = tracer()) {
        if (vacuous) {
            t->instant(w.rank, "epoch", close_event_name(e->kind),
                       {{"win", w.id},
                        {"seq", i64(e->seq)},
                        {"vacuous", true}});
        } else {
            t->instant(w.rank, "epoch", close_event_name(e->kind),
                       {{"win", w.id}, {"seq", i64(e->seq)}});
        }
    }
    if (e->error != NBE_SUCCESS) {
        // Aborted (link failure) before the application closed it.
        e->close_req = rt::RequestState::failed(e->error);
        return Request(e->close_req);
    }
    e->close_req = std::allocate_shared<rt::RequestState>(
        sim::PoolAllocator<rt::RequestState>(w.req_pool));
    // Lazy label: the string is built only if a process actually parks on
    // this request (deadlock diagnostics path), not per close.
    e->close_req->set_label_fn(
        [kind = e->kind, win = w.id, seq = e->seq, rank = w.rank] {
            return "close " + std::string(to_string(kind)) + " epoch(win " +
                   std::to_string(win) + ", seq " + std::to_string(seq) +
                   ") @ rank" + std::to_string(rank);
        });
    Request out(e->close_req);
    if (vacuous) {
        // No barrier exchange: every rank asserted the epoch is empty.
        retire_epoch(w, e, NBE_SUCCESS);
    } else if (e->phase == Epoch::Phase::Active) {
        drive_epoch(w, e);
    } else {
        // A deferred epoch may be closed at application level; it is then
        // flagged closed and finished entirely inside the engine (§VII-A).
        activation_scan(w);  // closing may enable lazy (MVAPICH) activation
    }
    return out;
}

Request Rma::close_app(Rank r, std::uint32_t win, EpochKind kind, Rank target,
                       const char* what) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    return close_epoch(w, find_open_or_misuse(w, kind, target, what));
}

void Rma::notify_epoch(EpochEvent::What what, const WinState& w,
                       const Epoch& e) {
    if (!epoch_observer_) return;
    EpochEvent ev;
    ev.what = what;
    ev.rank = w.rank;
    ev.win = w.id;
    ev.seq = e.seq;
    ev.kind = e.kind;
    ev.origin_side = e.origin_side();
    ev.closed_app = e.closed_app;
    ev.flush_forced = e.flush_forced;
    epoch_observer_(ev);
}

bool Rma::can_activate(const WinState& w, const Epoch& e) const {
    // An epoch a link failure dooms is only waiting for its retirement.
    if (e.error != NBE_SUCCESS) return false;
    // MVAPICH lazy lock acquisition: the whole passive-target epoch
    // degenerates to the unlock call.
    if (mode_ == Mode::Mvapich &&
        (e.kind == EpochKind::Lock || e.kind == EpochKind::LockAll) &&
        !e.closed_app && !e.flush_forced) {
        return false;
    }
    for (const auto& a : w.active) {
        // Epochs that are still *open* at application level coexist with
        // newly opened epochs by MPI semantics (MPI_WIN_POST + MPI_WIN_START
        // on the same window, lock epochs to distinct targets, an empty
        // fence epoch awaiting its closing fence). The default "activate
        // E(k+1) only after E(k) completes" rule of §VI-B governs *queued
        // successors* of closed-but-incomplete epochs — the backlog that
        // only nonblocking closes can create.
        if (!a->closed_app) continue;
        if (mode_ == Mode::Mvapich) return false;
        // Flags never apply across fence / lock-all adjacency (§VI-B).
        if (a->kind == EpochKind::Fence || a->kind == EpochKind::LockAll ||
            e.kind == EpochKind::Fence || e.kind == EpochKind::LockAll) {
            return false;
        }
        const bool e_origin = e.origin_side();
        const bool a_origin = a->origin_side();
        bool allowed = false;
        if (e_origin && a_origin) allowed = w.info.access_after_access;
        if (e_origin && !a_origin) allowed = w.info.access_after_exposure;
        if (!e_origin && !a_origin) allowed = w.info.exposure_after_exposure;
        if (!e_origin && a_origin) allowed = w.info.exposure_after_access;
        if (!allowed) return false;
    }
    return true;
}

void Rma::activation_scan(WinState& w) {
    // Activate, in order, the longest prefix of the deferred queue that
    // satisfies the predicate; stop at the first failure (rule 4: epochs are
    // never skipped).
    while (!w.deferred.empty()) {
        EpochPtr e = w.deferred.front();
        if (!can_activate(w, *e)) break;
        w.deferred.pop_front();
        activate(w, e);
    }
}

void Rma::activate(WinState& w, const EpochPtr& e) {
    notify_epoch(EpochEvent::What::Activate, w, *e);
    e->phase = Epoch::Phase::Active;
    e->activated_at = world_.engine().now();
    if (h_deferral_ != nullptr) {
        h_deferral_->observe(
            static_cast<double>(e->activated_at - e->opened_at));
    }
    if (auto* t = tracer()) {
        if (e->activated_at > e->opened_at) {
            t->complete_at(w.rank, "engine", "epoch.deferred", e->opened_at,
                           e->activated_at,
                           {{"win", w.id}, {"seq", i64(e->seq)}});
        }
        t->instant(w.rank, "engine", "epoch.activate",
                   {{"win", w.id}, {"seq", i64(e->seq)}});
    }
    w.active.push_back(e);
    e->outstanding = e->group_size;
    auto& st = stats_[static_cast<std::size_t>(w.rank)];
    ++st.epochs_activated;
    st.max_active_epochs =
        std::max<std::uint64_t>(st.max_active_epochs, w.active.size());

    // MVAPICH batching counts the peers not granted yet, by node class.
    const bool batches = mvapich_batches(*e);
    auto& fabric = world_.fabric();
    const auto count_ungranted = [&](Rank t, bool granted) {
        if (!batches || granted) return;
        ++(fabric.same_node(w.rank, t) ? e->ungranted_intra
                                       : e->ungranted_inter);
    };
    if (!is_lock(e->kind)) size_counters(w);
    // Exposure and lock epochs await a control packet from every peer.
    if ((e->kind == EpochKind::Exposure || is_lock(e->kind)) &&
        e->outstanding != 0) {
        w.awaiting.push_back(e);
    }
    switch (e->kind) {
        case EpochKind::Access:
            for (auto& [t, ps] : e->peer) {
                ps.access_id = ++w.a[static_cast<std::size_t>(t)];
                ps.granted = ps.access_id <= w.g[static_cast<std::size_t>(t)];
                count_ungranted(t, ps.granted);
            }
            break;
        case EpochKind::Exposure:
            for (auto& [o, ps] : e->peer) {
                ps.exposure_id = ++w.e[static_cast<std::size_t>(o)];
                send_control(w.rank, o, kGrant, w.id, ps.exposure_id);
            }
            break;
        case EpochKind::Lock:
        case EpochKind::LockAll:
            // Locks do not touch the ⟨a,e,g⟩ exposure counters at all:
            // acquisition always goes through the target's lock manager
            // and comes back as kLockGrant. Sharing the counters with
            // fence/GATS exposures let an overlapping lock be "granted"
            // by a stray exposure credit — bypassing mutual exclusion,
            // sending a phantom unlock that corrupted the lock manager,
            // and starving the epoch the credit was actually meant for.
            for (auto& [t, ps] : e->peer) {
                ps.granted = false;
                send_control(w.rank, t, kLockReq, w.id,
                             static_cast<std::uint64_t>(e->lock_type));
            }
            break;
        case EpochKind::Fence:
            // Every rank is a peer: each gets an access and an exposure id
            // and a grant. Only the ranks with ops recorded so far hold
            // per-peer state; the others need none unless an op joins
            // them to the map later (op_peer reads fence_access then).
            w.fence = e;
            for_each_rank(e->peer, e->group_size, [&](Rank t, PeerState* ps) {
                const auto i = static_cast<std::size_t>(t);
                const std::uint64_t access_id = w.fence_access[i] = ++w.a[i];
                send_control(w.rank, t, kGrant, w.id, ++w.e[i]);
                const bool granted = access_id <= w.g[i];
                if (ps != nullptr) {
                    ps->access_id = access_id;
                    ps->granted = granted;
                }
                count_ungranted(t, granted);
            });
            break;
    }
    // Replay: issue what can be issued; if the epoch was already closed at
    // application level, run its close logic too.
    drive_epoch(w, e);
}

bool Rma::mvapich_batches(const Epoch& e) const {
    return mode_ == Mode::Mvapich &&
           (e.kind == EpochKind::Access || e.kind == EpochKind::Fence);
}

bool Rma::mvapich_batch_ready(const WinState& w, const Epoch& e,
                              Rank t) const {
    // Vanilla MVAPICH batching at the epoch-closing routine: wait for all
    // internode targets to be ready before issuing to any internode target,
    // then for all intranode targets before any intranode transfer
    // (paper §VIII-B).
    if (!e.closed_app || e.ungranted_inter != 0) return false;
    return e.ungranted_intra == 0 || !world_.fabric().same_node(w.rank, t);
}

bool Rma::may_issue_op(const WinState& w, const Epoch& e,
                       const RmaOp& op) const {
    if (e.phase != Epoch::Phase::Active) return false;
    const PeerState& ps = e.peer.at(op.target);
    if (!ps.granted) return false;
    // MPI orders same-origin same-target accumulate-family ops in program
    // order. "Issued" is not "sent": a rendezvous accumulate has only sent
    // its RTS and ships data at the CTS, and an MVAPICH non-eager op is
    // held for close-time batching — a later accumulate issued in that gap
    // would land first. Hold each accumulate until every earlier one
    // toward the same target has put its data on the wire.
    if (op.acc_seq != 0 && op.acc_seq != ps.acc_sent + 1) {
        return false;
    }
    if (mvapich_batches(e) && !op.mvapich_eager) {
        return mvapich_batch_ready(w, e, op.target);
    }
    return true;
}

void Rma::issue_pending(WinState& w, const EpochPtr& e, PeerState& ps) {
    // Every issuable op goes out; a held one is skipped, not waited for:
    // MPI orders only accumulates among themselves, and may_issue_op keeps
    // that order. The cursor moves past the issued prefix only; a retired
    // (null) slot was issued.
    for (std::size_t i = ps.issue_cursor; i < ps.pending.size(); ++i) {
        const OpPtr& op = ps.pending[i];
        if (op != nullptr && !op->issued && may_issue_op(w, *e, *op)) {
            issue_op(w, e, op);
        }
        if ((op == nullptr || op->issued) && i == ps.issue_cursor) {
            ++ps.issue_cursor;
        }
    }
}

void Rma::complete_if_done(WinState& w, const EpochPtr& e) {
    if (!e->closed_app || e->outstanding != 0) return;
    if (e->kind == EpochKind::Fence) {
        // The fence barrier: every peer's ops toward this rank have drained.
        const auto it = std::find_if(
            w.fence_dones.begin(), w.fence_dones.end(),
            [&](const auto& d) { return d.first == e->fence_seq; });
        if (it == w.fence_dones.end() || it->second < e->group_size) return;
    }
    retire_epoch(w, e, NBE_SUCCESS);
}

void Rma::close_notify_peer(WinState& w, Epoch& e, Rank t, PeerState& ps) {
    if (ps.ops_done != ps.ops_total) return;
    switch (e.kind) {
        case EpochKind::Access:
            // The origin-side close waits for the matching exposure:
            // Late Post can still be incurred at MPI_WIN_COMPLETE.
            if (ps.granted && !ps.done_sent) {
                ps.done_sent = true;
                --e.outstanding;
                ++stats_[static_cast<std::size_t>(w.rank)].dones_sent;
                send_control(w.rank, t, kDone, w.id, ps.access_id);
            }
            break;
        case EpochKind::Fence:
            if (!ps.done_sent) {
                ps.done_sent = true;
                send_fence_done(w, e, t);
            }
            break;
        case EpochKind::Lock:
        case EpochKind::LockAll:
            if (ps.granted && !ps.unlock_sent) send_unlock(w, e, t, ps);
            break;
        case EpochKind::Exposure:
            break;
    }
}

void Rma::send_fence_done(WinState& w, Epoch& e, Rank t) {
    --e.outstanding;
    ++stats_[static_cast<std::size_t>(w.rank)].dones_sent;
    send_control(w.rank, t, kFenceDone, w.id, e.fence_seq);
}

void Rma::drive_epoch(WinState& w, EpochPtr e) {  // NOLINT: by value — callers may pass references into containers this function mutates
    if (e->phase != Epoch::Phase::Active) return;
    // New-engine optimization (§VIII-B): internode backlogs are issued
    // before intranode ones so the two channels overlap.
    auto& fabric = world_.fabric();
    for (const bool intra : {false, true}) {
        for (auto& [t, ps] : e->peer) {
            if (ps.issue_cursor < ps.pending.size() &&
                fabric.same_node(w.rank, t) == intra) {
                issue_pending(w, e, ps);
            }
        }
    }
    if (e->closed_app) {
        if (e->kind == EpochKind::Fence && !e->idle_dones_sent) {
            // A fence rank without ops is done at once: the first closed
            // drive sends its done, in rank order with the op targets'.
            e->idle_dones_sent = true;
            for_each_rank(e->peer, e->group_size, [&](Rank t, PeerState* ps) {
                if (ps != nullptr) {
                    close_notify_peer(w, *e, t, *ps);
                } else {
                    send_fence_done(w, *e, t);
                }
            });
        } else {
            for (auto& [t, ps] : e->peer) close_notify_peer(w, *e, t, ps);
        }
    }
    complete_if_done(w, e);
}

void Rma::drive_peer(WinState& w, EpochPtr e, Rank t, PeerState& ps) {  // NOLINT: by value, as drive_epoch
    if (e->phase != Epoch::Phase::Active) return;
    issue_pending(w, e, ps);
    if (e->closed_app) close_notify_peer(w, *e, t, ps);
    complete_if_done(w, e);
}

void Rma::retire_epoch(WinState& w, EpochPtr e, Status s) {  // NOLINT: by value — erases e from lists a caller's reference may point into
    const bool was_active = e->phase == Epoch::Phase::Active;
    notify_epoch(EpochEvent::What::Complete, w, *e);
    e->phase = Epoch::Phase::Completed;
    e->error = s;
    if (was_active) {
        w.active.erase(e);
    } else if (auto it = std::find(w.deferred.begin(), w.deferred.end(), e);
               it != w.deferred.end()) {
        w.deferred.erase(it);
    }
    if (e->kind == EpochKind::Fence) {
        std::erase_if(w.fence_dones,
                      [&](const auto& d) { return d.first == e->fence_seq; });
        if (w.fence == e) w.fence.reset();
    }
    auto& st = stats_[static_cast<std::size_t>(w.rank)];
    if (s != NBE_SUCCESS) {
        if (auto* t = tracer()) {
            t->instant(w.rank, "engine", "epoch.abort",
                       {{"win", w.id},
                        {"seq", i64(e->seq)},
                        {"status", static_cast<int>(s)}});
        }
        if (was_active && e->kind == EpochKind::Exposure) {
            // Dones arriving later match nothing.
            std::erase(w.awaiting, e);
        } else if (was_active && is_lock(e->kind)) {
            // A lock epoch's peers hold its lock or will grant it. Each one
            // that has granted gets an unlock now, and on_lock_grant sends
            // the late ones; while a peer can still reach this rank, it
            // still owes the epoch its grant and ack. Anything else later
            // from its peers matches nothing.
            auto& fabric = world_.fabric();
            for (auto& [p, ps] : e->peer) {
                if (ps.unlock_acked) continue;
                if (fabric.link_failed(p, w.rank)) {
                    ps.unlock_acked = true;  // nothing can come from p
                    if (--e->outstanding == 0) std::erase(w.awaiting, e);
                } else if (ps.granted && !ps.unlock_sent &&
                           !fabric.link_failed(w.rank, p)) {
                    send_unlock(w, *e, p, ps);
                }
            }
        }
        // The epoch stays in open_app if the application has not closed it
        // yet; the eventual close returns the failure (see close_epoch).
        abort_ops(w, *e, s);
        if (e->close_req) e->close_req->fail(world_.engine(), s);
        ++st.epochs_aborted;
    } else {
        const sim::Time now = world_.engine().now();
        if (was_active) {
            if (h_active_ != nullptr) {
                h_active_->observe(static_cast<double>(now - e->activated_at));
            }
            if (h_close_to_complete_ != nullptr) {
                h_close_to_complete_->observe(
                    static_cast<double>(now - e->closed_at));
            }
            if (auto* t = tracer()) {
                t->complete_at(w.rank, "epoch", span_event_name(e->kind),
                               e->activated_at, now,
                               {{"win", w.id},
                                {"seq", i64(e->seq)},
                                {"deferred_ns",
                                 e->activated_at - e->opened_at}});
            }
        }
        // Overlap ratio: how much of the close->complete interval the
        // application did NOT spend blocked in a wait on the close request.
        // Observed lazily when (and only if) a process waits on this request.
        if (h_overlap_ != nullptr && e->close_req && now > e->closed_at) {
            obs::Histogram* h = h_overlap_;
            const sim::Time t_close = e->closed_at;
            const sim::Time t_comp = now;
            e->close_req->set_wait_observer(
                [h, t_close, t_comp](sim::Time enter, sim::Time exit) {
                    const auto span = static_cast<double>(t_comp - t_close);
                    const sim::Time b0 = std::max(enter, t_close);
                    const sim::Time b1 = std::min(exit, t_comp);
                    const double blocked =
                        b1 > b0 ? static_cast<double>(b1 - b0) : 0.0;
                    const double ratio =
                        span > 0.0 ? 1.0 - blocked / span : 1.0;
                    h->observe(std::clamp(ratio, 0.0, 1.0));
                });
        }
        if (e->close_req) e->close_req->complete(world_.engine());
        ++st.epochs_completed;
    }
    if (auto* ck = world_.checker()) {
        // This rank's exposure phase is over: its shadow intervals retire.
        if (e->exposure_side()) ck->phase_complete(w.rank, w.id, e->seq);
    }
    // Every internal completion triggers a scan over this window's deferred
    // epochs (§VII-A).
    activation_scan(w);
    flush_held_lock_grants(w);
}

void Rma::abort_ops(WinState& w, const Epoch& e, Status s) {
    // In record order (ascending age), so waiters wake in the order the
    // application made its calls, not backlog by backlog.
    std::vector<RmaOp*> ops;
    for_each_op(e, -1, [&](RmaOp& op) { ops.push_back(&op); });
    std::sort(ops.begin(), ops.end(),
              [](const RmaOp* a, const RmaOp* b) { return a->age < b->age; });
    for (RmaOp* opp : ops) {
        RmaOp& op = *opp;
        // The app resumes with an error and may free its origin buffers,
        // but in-flight packets on still-healthy links can share them:
        // copy any borrowed payload into owned storage before letting go.
        op.data.detach();
        // Drop the origin buffer's registration-cache entry too: the app
        // may free the buffer, and a later pin of a *new* allocation at the
        // same address must miss instead of hitting the dead entry.
        world_.fabric().unpin(w.rank, op.origin_key);
        w.pending_replies.erase(op.id);
        w.pending_acc_rndv.erase(op.id);
        // Fail flushes that were counting this op before failing the op
        // itself, so the flush sees a consistent pending count.
        for (auto fit = w.flushes.begin(); fit != w.flushes.end();) {
            FlushReq& f = *fit;
            const bool done = f.local_only ? op.local_done : op.remote_done;
            if (f.covers(op) && !done) {
                f.req->fail(world_.engine(), s);
                fit = w.flushes.erase(fit);
            } else {
                ++fit;
            }
        }
        if (op.op_req) op.op_req->fail(world_.engine(), s);
    }
    // Retired ops are complete, so no flush or request counts them and the
    // wire reads none of their payloads again: only their origin buffers'
    // registrations are left to drop (unpin is an order-free erase).
    e.retired_keys.for_each(
        [&](std::uint64_t key) { world_.fabric().unpin(w.rank, key); });
}

EpochPtr Rma::find_open(WinState& w, EpochKind kind, Rank target) {
    // Newest-first over raw slots (erased entries are null tombstones).
    for (std::size_t i = w.open_app.slot_count(); i-- > 0;) {
        const EpochPtr& e = w.open_app.slot(i);
        if (!e || e->kind != kind) continue;
        if (target >= 0 && e->peer.size() == 1 &&
            e->peer.begin()->first != target) {
            continue;
        }
        return e;
    }
    return nullptr;
}

EpochPtr Rma::find_open_or_misuse(WinState& w, EpochKind kind, Rank target,
                                  const char* what) {
    EpochPtr e = find_open(w, kind, target);
    if (!e) {
        misuse(w, what, target >= 0 ? "target " + std::to_string(target) : "");
    }
    return e;
}

void Rma::require_nonblocking(Rank r, std::uint32_t win, const char* what) {
    if (mode_ != Mode::Mvapich) return;
    misuse(ws(r, win), what,
           "nonblocking synchronizations are not available in MVAPICH mode");
}

void Rma::misuse(const WinState& w, const char* what, std::string detail) {
    std::string msg = what;
    if (!detail.empty()) msg += ": " + detail;
    if (auto* ck = world_.checker()) {
        ck->usage_error(w.rank, w.id, what, std::move(detail));
    }
    throw std::logic_error(msg);
}

EpochPtr Rma::route_op(WinState& w, Rank target) {
    for (std::size_t i = w.open_app.slot_count(); i-- > 0;) {
        const EpochPtr& ep = w.open_app.slot(i);
        if (!ep) continue;
        switch (ep->kind) {
            case EpochKind::Lock:
                if (ep->peer.begin()->first == target) return ep;
                break;
            case EpochKind::LockAll:
            case EpochKind::Fence:
                return ep;
            case EpochKind::Access:
                if (ep->peer.contains(target)) return ep;
                break;
            case EpochKind::Exposure:
                break;
        }
    }
    misuse(w, "op outside epoch", "target " + std::to_string(target));
}

// ====================================================== synchronization API

Request Rma::istart(Rank r, std::uint32_t win, std::span<const Rank> group) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    open_epoch(w, EpochKind::Access, LockType::Shared, group);
    // Epoch-opening routines return a dummy completed request (§VII-C).
    return Request(rt::RequestState::completed());
}

Request Rma::icomplete(Rank r, std::uint32_t win) {
    return close_app(r, win, EpochKind::Access, -1, "complete without start");
}

Request Rma::ipost(Rank r, std::uint32_t win, std::span<const Rank> group) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    open_epoch(w, EpochKind::Exposure, LockType::Shared, group);
    return Request(rt::RequestState::completed());
}

Request Rma::iwait(Rank r, std::uint32_t win) {
    return close_app(r, win, EpochKind::Exposure, -1, "wait without post");
}

bool Rma::test_exposure(Rank r, std::uint32_t win) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    EpochPtr e =
        find_open_or_misuse(w, EpochKind::Exposure, -1, "test without post");
    if (e->phase != Epoch::Phase::Active || e->outstanding != 0) return false;
    close_epoch(w, e);
    return true;
}

Request Rma::ifence(Rank r, std::uint32_t win, unsigned asserts) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) {
        ck->sync_call(r, win);
        ck->fence_asserts(r, win, asserts);
    }
    // The first fence on a window has nothing to close.
    Request close_request(rt::RequestState::completed());
    if (EpochPtr prev = find_open(w, EpochKind::Fence)) {
        close_request = close_epoch(w, prev, (asserts & kNoPrecede) != 0);
    }
    if (!(asserts & kNoSucceed)) {
        open_epoch(w, EpochKind::Fence, LockType::Shared, all_ranks_);
    }
    return close_request;
}

Request Rma::ilock(Rank r, std::uint32_t win, LockType type, Rank target) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    if (find_open(w, EpochKind::Lock, target)) {
        misuse(w, "lock while locked", "target " + std::to_string(target));
    }
    open_epoch(w, EpochKind::Lock, type, std::span<const Rank>(&target, 1));
    return Request(rt::RequestState::completed());
}

Request Rma::iunlock(Rank r, std::uint32_t win, Rank target) {
    return close_app(r, win, EpochKind::Lock, target, "unlock without lock");
}

Request Rma::ilock_all(Rank r, std::uint32_t win) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    if (find_open(w, EpochKind::LockAll)) {
        misuse(w, "lock_all while locked", "");
    }
    open_epoch(w, EpochKind::LockAll, LockType::Shared, all_ranks_);
    return Request(rt::RequestState::completed());
}

Request Rma::iunlock_all(Rank r, std::uint32_t win) {
    return close_app(r, win, EpochKind::LockAll, -1,
                     "unlock_all without lock_all");
}

Request Rma::iflush(Rank r, std::uint32_t win, Rank target, bool local_only) {
    WinState& w = ws(r, win);
    if (auto* ck = world_.checker()) ck->sync_call(r, win);
    // Flush applies to the currently open passive-target epoch(s). Nothing
    // below opens or closes an epoch, so open_app is walked for each pass
    // instead of being copied.
    const auto in_scope = [target](const Epoch& e) {
        return e.kind == EpochKind::LockAll ||
               (e.kind == EpochKind::Lock &&
                (target < 0 || e.peer.begin()->first == target));
    };
    bool any = false;
    for (const auto& e : w.open_app) {
        if (in_scope(*e)) {
            any = true;
            break;
        }
    }
    if (!any) {
        misuse(w, "flush without lock",
               target >= 0 ? "target " + std::to_string(target) : "");
    }
    if (auto* t = tracer()) {
        t->instant(r, "epoch", "flush",
                   {{"win", win}, {"target", target}, {"local", local_only}});
    }
    if (mode_ == Mode::Mvapich) {
        // Real MVAPICH's lazy lock acquisition is forced by a flush: the
        // epoch must acquire its lock now, not at the unlock call.
        for (const auto& e : w.open_app) {
            if (in_scope(*e)) e->flush_forced = true;
        }
        activation_scan(w);
    }
    FlushReq f;
    f.req = std::allocate_shared<rt::RequestState>(
        sim::PoolAllocator<rt::RequestState>(w.req_pool));
    f.target = target;
    f.local_only = local_only;
    f.age_limit = w.next_op_age - 1;  // the RMA call that immediately precedes
    for (const auto& e : w.open_app) {
        if (!in_scope(*e)) continue;
        for_each_op(*e, target, [&](const RmaOp& op) {
            if (!f.covers(op)) return;
            if (!(local_only ? op.local_done : op.remote_done)) ++f.pending;
        });
    }
    if (f.pending == 0) {
        if (local_only) detach_borrowed_for_flush(w, f);
        f.req->complete(world_.engine());
    } else {
        w.flushes.push_back(f);
    }
    return Request(f.req);
}

// ========================================================= communication API

Request Rma::post_op(Rank r, std::uint32_t win, OpKind kind, Rank target,
                     std::size_t target_disp, const void* origin_in,
                     void* origin_out, std::size_t count, TypeId type,
                     ReduceOp rop, bool request_based) {
    WinState& w = ws(r, win);
    EpochPtr e = route_op(w, target);
    if (request_based && e->kind != EpochKind::Lock &&
        e->kind != EpochKind::LockAll) {
        misuse(w, "request-based op in active-target epoch",
               "target " + std::to_string(target));
    }
    const std::size_t esz = type_size(type);
    // Pooled: control block + RmaOp recycle through w.op_pool, so the
    // steady-state op stream performs no heap allocation here.
    auto op =
        std::allocate_shared<RmaOp>(sim::PoolAllocator<RmaOp>(w.op_pool));
    op->kind = kind;
    op->target = target;
    op->age = w.next_op_age++;
    op->id = w.next_op_id++;
    op->target_disp = target_disp;
    op->type = type;
    op->rop = rop;
    op->origin_out = static_cast<std::byte*>(origin_out);
    op->origin_key = reinterpret_cast<std::uintptr_t>(
        origin_in ? origin_in : origin_out);

    // Zero-copy datapath: bulk Put/Accumulate payloads *borrow* the origin
    // buffer, like RDMA reading registered memory — no staging copy, and
    // every later hop (wire clone, dup, retransmit) shares the view by
    // refcount. The usual eager/rendezvous split applies: payloads under
    // kZeroCopyThreshold are eagerly staged (one small copy) so the app may
    // reuse the buffer the moment the call returns; above it the bytes are
    // read in place, and MPI's origin-buffer rule (no touching before
    // local completion) is what keeps them stable. Everywhere the runtime
    // reports local completion while the wire could still read the bytes
    // (flush_local, epoch abort) it detaches the borrow into an owned copy
    // first. The element-wise ops below always stage — CAS packs two
    // scalars, and the win would be noise.
    switch (kind) {
        case OpKind::Put:
        case OpKind::Accumulate:
            op->bytes = count * esz;
            op->data = op->bytes >= kZeroCopyThreshold
                           ? net::PayloadRef::borrow(origin_in, op->bytes)
                           : net::PayloadRef::copy_of(origin_in, op->bytes);
            break;
        case OpKind::Get:
            op->bytes = 0;
            op->reply_bytes = count * esz;
            break;
        case OpKind::GetAccumulate:
        case OpKind::FetchAndOp:
            op->bytes = count * esz;
            op->reply_bytes = count * esz;
            op->data = net::PayloadRef::copy_of(origin_in, op->bytes);
            break;
        case OpKind::CompareAndSwap:
            // data layout: [desired][compare], one element each.
            op->bytes = 2 * esz;
            op->reply_bytes = esz;
            op->data = net::PayloadRef::copy_of(origin_in, op->bytes);
            break;
    }
    if (request_based) {
        op->op_req = std::allocate_shared<rt::RequestState>(
            sim::PoolAllocator<rt::RequestState>(w.req_pool));
    }
    record_op(w, e, op);
    return op->op_req ? Request(op->op_req) : Request();
}

void Rma::record_op(WinState& w, const EpochPtr& e, const OpPtr& op) {
    op->posted_at = world_.engine().now();
    PeerState& ps = op_peer(w, *e, op->target);
    op->backlog_seq = ps.ops_total++;
    ps.pending.push_back(op);
    if (op->kind != OpKind::Put && op->kind != OpKind::Get) {
        // Accumulate family: program-order index toward this target, used
        // by may_issue_op to keep MPI's accumulate ordering on the wire.
        op->acc_seq = ++ps.acc_recorded;
    }
    if (auto* ck = world_.checker()) {
        ck->note_op(w.rank, w.id, op->id, op->posted_at, op->age);
    }
    op->mvapich_eager = e->phase == Epoch::Phase::Active && ps.granted;
    if (e->phase == Epoch::Phase::Active && may_issue_op(w, *e, *op)) {
        issue_op(w, e, op);
    }
}

PeerState& Rma::op_peer(const WinState& w, Epoch& e, Rank t) {
    if (e.kind != EpochKind::Fence) return e.peer.at(t);
    if (t < 0 || static_cast<std::size_t>(t) >= e.group_size) {
        throw std::out_of_range("op target outside the fence's group");
    }
    auto [ps, added] = e.peer.try_emplace(t);
    if (added && e.phase == Epoch::Phase::Active) {
        const auto i = static_cast<std::size_t>(t);
        ps.access_id = w.fence_access[i];
        ps.granted = ps.access_id <= w.g[i];
    }
    return ps;
}

void Rma::issue_op(WinState& w, const EpochPtr& e, const OpPtr& op) {
    op->issued = true;
    op->issued_at = world_.engine().now();
    if (h_op_queue_ != nullptr) {
        h_op_queue_->observe(static_cast<double>(op->issued_at - op->posted_at));
    }
    if (auto* t = tracer()) {
        t->instant(w.rank, "engine", "op.issue",
                   {{"win", w.id},
                    {"op", i64(op->id)},
                    {"target", op->target},
                    {"bytes", i64(op->bytes)}});
    }
    auto& st = stats_[static_cast<std::size_t>(w.rank)];
    ++st.ops_issued;
    st.bytes_put += op->bytes;

    switch (op->kind) {
        case OpKind::Put:
        case OpKind::Accumulate:
            if (op->kind == OpKind::Accumulate && acc_needs_rndv(op->bytes)) {
                // Large accumulates need an intermediate target-side buffer:
                // internal rendezvous (paper §VIII-A). Data goes out at the
                // CTS (on_acc_cts), which is also where acc_sent advances.
                ++st.acc_rndv;
                w.pending_acc_rndv.emplace(op->id, std::make_pair(e, op));
                send_control(w.rank, op->target, kAccRts, w.id, op->id,
                             op->bytes);
                return;
            }
            send_op_data(w, e, op);
            if (op->acc_seq != 0) ++e->peer.at(op->target).acc_sent;
            op->local_done = true;
            note_op_completion_for_flushes(w, *op, /*local_event=*/true);
            break;
        case OpKind::Get: {
            w.pending_replies.emplace(op->id, std::make_pair(e, op));
            net::Packet p;
            p.src = w.rank;
            p.dst = op->target;
            p.kind = kGetReq;
            p.header[0] = w.id;
            p.header[2] = op->target_disp;
            p.header[3] = op->id;
            p.header[5] = op->reply_bytes;
            world_.fabric().send(std::move(p));
            break;
        }
        case OpKind::GetAccumulate:
        case OpKind::FetchAndOp:
        case OpKind::CompareAndSwap: {
            w.pending_replies.emplace(op->id, std::make_pair(e, op));
            net::Packet p;
            p.src = w.rank;
            p.dst = op->target;
            p.kind = kData;
            p.header[0] = w.id;
            p.header[1] = static_cast<std::uint64_t>(op->kind);
            p.header[2] = op->target_disp;
            p.header[3] = op->id;
            p.header[4] = pack_type_rop(op->type, op->rop);
            p.payload = op->data;  // refcount share, not a copy
            world_.fabric().send(std::move(p));
            ++e->peer.at(op->target).acc_sent;
            break;
        }
    }
}

void Rma::send_op_data(WinState& w, const EpochPtr& e, const OpPtr& op) {
    const auto pin_delay =
        world_.fabric().pin(w.rank, op->origin_key, op->bytes);
    net::Packet p;
    p.src = w.rank;
    p.dst = op->target;
    p.kind = kData;
    p.header[0] = w.id;
    p.header[1] = static_cast<std::uint64_t>(op->kind);
    p.header[2] = op->target_disp;
    p.header[3] = 0;  // no reply
    p.header[4] = pack_type_rop(op->type, op->rop);
    p.header[5] = op->id;  // semantics checker joins op metadata on this
    // Share (don't move): the op must keep its ref so the flush_local /
    // abort hooks can detach a borrowed payload while the wire still
    // holds a view of it.
    p.payload = op->data;
    // Capture budget (SmallFn inline = 48B): this + &w + EpochPtr + raw
    // RmaOp* = 40B. The EpochPtr keeps the op's peer backlog alive even if
    // the epoch aborts while the packet is in flight, and the backlog keeps
    // *op alive until on_op_remote_complete retires it: the ack is the
    // op's last event, and it fires once.
    world_.fabric().send(
        std::move(p), pin_delay,
        {.on_acked = [this, &w, epoch = e, op_raw = op.get()](sim::Time) {
            on_op_remote_complete(w, epoch, op_raw);
        }});
}

void Rma::on_op_remote_complete(WinState& w, const EpochPtr& e, RmaOp* op) {
    if (op->remote_done) return;
    op->remote_done = true;
    const sim::Time now = world_.engine().now();
    if (h_op_transfer_ != nullptr) {
        h_op_transfer_->observe(static_cast<double>(now - op->issued_at));
    }
    if (auto* t = tracer()) {
        t->complete_at(w.rank, "engine", "op.transfer", op->issued_at, now,
                       {{"win", w.id},
                        {"op", i64(op->id)},
                        {"target", op->target},
                        {"bytes", i64(op->bytes + op->reply_bytes)}});
    }
    PeerState& ps = e->peer.at(op->target);
    ++ps.ops_done;
    note_op_completion_for_flushes(w, *op, /*local_event=*/false);
    if (op->op_req) op->op_req->complete(world_.engine());
    // Op completion only moves this target's ops_done; issuability toward
    // every peer is unchanged (it depends on grants alone), so driving
    // this one peer is exact in all modes here.
    drive_peer(w, e, op->target, ps);
    // Remote completion is the op's last event (issue and local completion
    // precede it for every kind): nothing reads it again.
    retire_op(*e, ps, *op);
}

void Rma::retire_op(Epoch& e, PeerState& ps, const RmaOp& op) {
    e.retired_keys.insert(op.origin_key);
    const auto first_seq =
        ps.ops_total - static_cast<std::uint32_t>(ps.pending.size());
    ps.pending[op.backlog_seq - first_seq].reset();  // may free `op`
    while (ps.head < ps.pending.size() && ps.pending[ps.head] == nullptr) {
        ++ps.head;
    }
    // Retired slots were issued, so the cursor may skip them.
    ps.issue_cursor = std::max(ps.issue_cursor, ps.head);
    if (ps.head == ps.pending.size()) {
        ps.pending.clear();
        ps.head = ps.issue_cursor = 0;
    } else if (ps.head >= kMinBacklogTrim && 2 * ps.head >= ps.pending.size()) {
        // Dropping the retired prefix once it is at least half the backlog
        // moves no more slots than it frees: amortized O(1) per op.
        ps.pending.erase(ps.pending.begin(), ps.pending.begin() + ps.head);
        ps.issue_cursor -= ps.head;
        ps.head = 0;
    }
}

void Rma::note_op_completion_for_flushes(WinState& w, const RmaOp& op,
                                         bool local_event) {
    for (auto it = w.flushes.begin(); it != w.flushes.end();) {
        FlushReq& f = *it;
        const bool matches = f.covers(op) && f.local_only == local_event;
        if (matches && f.pending > 0 && --f.pending == 0) {
            if (f.local_only) detach_borrowed_for_flush(w, f);
            f.req->complete(world_.engine());
            it = w.flushes.erase(it);
        } else {
            ++it;
        }
    }
}

void Rma::detach_borrowed_for_flush(WinState& w, const FlushReq& f) {
    for (const auto& e : w.open_app) {
        if (e->kind != EpochKind::LockAll && e->kind != EpochKind::Lock) {
            continue;
        }
        for_each_op(*e, f.target, [&](RmaOp& op) {
            // Acked ops were already consumed at the target; only payloads
            // the wire could still read need to be owned.
            if (f.covers(op) && !op.remote_done) op.data.detach();
        });
    }
}

// ======================================================== packet handling

bool Rma::grant_must_wait(const WinState& w, Rank from) const {
    for (const auto& e : w.active) {
        if (!e->exposure_side() || !e->closed_app) continue;
        switch (e->kind) {
            case EpochKind::Fence:
                // The requester's fence-done precedes its lock request on
                // the same link, so "done arrived" means it has left this
                // fence epoch and relies on the fence for separation.
                if (w.fence_done_from[static_cast<std::size_t>(from)] >=
                    e->fence_seq) {
                    return true;
                }
                break;
            case EpochKind::Exposure:
                if (const auto it = e->peer.find(from);
                    it != e->peer.end() && it->second.done_recv) {
                    return true;
                }
                break;
            default:
                break;
        }
    }
    return false;
}

void Rma::queue_or_send_lock_grant(WinState& w, Rank to) {
    // An exposure-side epoch the application already closed can still be
    // draining a slow origin's data (the nonblocking-epoch case: the close
    // returned early). A lock granted now would let passive-target traffic
    // read or clobber bytes the fence/GATS epoch has not finished writing,
    // so a requester that already left that epoch waits for the drain.
    // Requesters still inside it (done marker not here) interleave lock
    // and active-target epochs on purpose and are granted immediately —
    // holding them could cycle: the drain may need *their* done marker.
    if (grant_must_wait(w, to)) {
        w.held_lock_grants.push_back(to);
        ++stats_[static_cast<std::size_t>(w.rank)].lock_grants_held;
        return;
    }
    send_control(w.rank, to, kLockGrant, w.id, 0);
}

void Rma::flush_held_lock_grants(WinState& w) {
    if (w.held_lock_grants.empty()) return;
    std::vector<Rank> held;
    held.swap(w.held_lock_grants);
    for (Rank to : held) {
        if (grant_must_wait(w, to)) {
            w.held_lock_grants.push_back(to);
        } else {
            send_control(w.rank, to, kLockGrant, w.id, 0);
        }
    }
}

void Rma::send_control(Rank src, Rank dst, std::uint32_t kind, std::uint32_t win,
                       std::uint64_t h1, std::uint64_t h2) {
    net::Packet p;
    p.src = src;
    p.dst = dst;
    p.kind = kind;
    p.header[0] = win;
    p.header[1] = h1;
    p.header[2] = h2;
    world_.fabric().send(std::move(p));
}

void Rma::handle_packet(Rank r, net::Packet&& p) {
    WinState& w = ws(r, static_cast<std::uint32_t>(p.header[0]));
    switch (p.kind) {
        case kGrant: on_grant(w, p.src, p.header[1]); break;
        case kLockGrant: on_lock_grant(w, p.src); break;
        case kDone: on_done(w, p.src, p.header[1]); break;
        case kLockReq:
            on_lock_req(w, p.src, static_cast<LockType>(p.header[1]));
            break;
        case kUnlock: on_unlock(w, p.src, p.header[1]); break;
        case kUnlockAck: on_unlock_ack(w, p.src, p.header[1]); break;
        case kData: on_data(w, std::move(p)); break;
        case kGetReq: on_get_req(w, std::move(p)); break;
        case kGetReply: on_get_reply(w, std::move(p)); break;
        case kFenceDone: on_fence_done(w, p.src, p.header[1]); break;
        case kAccRts: on_acc_rts(w, std::move(p)); break;
        case kAccCts: on_acc_cts(w, std::move(p)); break;
        default:
            ++stats_[static_cast<std::size_t>(r)].protocol_errors;
            break;
    }
}

void Rma::on_grant(WinState& w, Rank from, std::uint64_t value) {
    size_counters(w);
    auto& g = w.g[static_cast<std::size_t>(from)];
    const std::uint64_t was = g;
    g = std::max(g, value);
    // The granted-access notification persists in the counter; any active
    // origin-side epoch that was waiting can now proceed (§VII-B). A grant
    // can retire epochs and activate new ones; walk() skips the former and
    // stops before the latter.
    w.active.walk([&](const EpochPtr& e) {
        // Lock epochs are granted on kLockGrant only — an exposure credit
        // must never satisfy (or be consumed by) a lock acquisition.
        if (!e->origin_side() || is_lock(e->kind)) return;
        auto it = e->peer.find(from);
        if (it != e->peer.end()) {
            if (!it->second.granted && it->second.access_id <= g) {
                grant_peer(w, e, from, it->second);
            }
            return;
        }
        // A fence rank without ops has nothing to issue, and its done went
        // out at the first closed drive: only an MVAPICH batch counts it.
        if (e->kind != EpochKind::Fence || !mvapich_batches(*e)) return;
        const std::uint64_t access_id =
            w.fence_access[static_cast<std::size_t>(from)];
        if (was < access_id && access_id <= g && batch_granted(w, *e, from)) {
            drive_epoch(w, e);
        }
    });
}

void Rma::grant_peer(WinState& w, const EpochPtr& e, Rank t, PeerState& ps) {
    ps.granted = true;
    if (mvapich_batches(*e) && batch_granted(w, *e, t)) {
        drive_epoch(w, e);
        return;
    }
    drive_peer(w, e, t, ps);
}

bool Rma::batch_granted(const WinState& w, Epoch& e, Rank t) {
    std::size_t& left = world_.fabric().same_node(w.rank, t)
                            ? e.ungranted_intra
                            : e.ungranted_inter;
    return --left == 0 && e.closed_app;
}

void Rma::on_done(WinState& w, Rank from, std::uint64_t access_id) {
    // The access id names the exposure it pairs with. Dones usually arrive
    // in id order, so the match is the first exposure entry; the reorder
    // flags can complete access epochs, and so send dones, out of order.
    const auto [e, ps] = awaited(w, from, kDone, access_id);
    // No match: the exposure epoch was aborted meanwhile.
    if (e == nullptr) return;
    ps->done_recv = true;
    if (--e->outstanding == 0) std::erase(w.awaiting, e);
    complete_if_done(w, e);
}

std::pair<EpochPtr, PeerState*> Rma::awaited(const WinState& w, Rank from,
                                             PacketKind kind,
                                             std::uint64_t value) {
    for (const EpochPtr& e : w.awaiting) {
        const auto it = e->peer.find(from);
        if (it == e->peer.end()) continue;
        PeerState& ps = it->second;
        if (kind == kDone ? e->kind == EpochKind::Exposure && !ps.done_recv &&
                                ps.exposure_id == value
                          : is_lock(e->kind) && !ps.unlock_acked &&
                                (kind == kLockGrant ? !ps.granted
                                                    : e->seq == value)) {
            return {e, &ps};
        }
    }
    return {nullptr, nullptr};
}

void Rma::on_lock_req(WinState& w, Rank from, LockType type) {
    if (w.lockmgr.request(from, type)) queue_or_send_lock_grant(w, from);
}

void Rma::on_lock_grant(WinState& w, Rank from) {
    auto& st = stats_[static_cast<std::size_t>(w.rank)];
    ++st.lock_grants_received;
    // Requests toward a peer are sent in activation order and the lock
    // manager grants a pair's requests in that same order, so this grant
    // belongs to the oldest still-ungranted lock epoch toward `from`.
    const auto [e, ps] = awaited(w, from, kLockGrant, 0);
    if (e == nullptr) {
        // No pending request: the requesting epoch aborted in the meantime.
        ++st.protocol_errors;
    } else if (e->phase == Epoch::Phase::Completed) {
        // Its epoch aborted while the request waited: hand the lock
        // straight back rather than to a younger epoch (the fabric drops
        // the unlock if the link toward `from` is down).
        ps->granted = true;
        send_unlock(w, *e, from, *ps);
    } else {
        grant_peer(w, e, from, *ps);
    }
}

void Rma::send_unlock(WinState& w, const Epoch& e, Rank t, PeerState& ps) {
    ps.unlock_sent = true;
    send_control(w.rank, t, kUnlock, w.id, e.seq);
}

void Rma::on_unlock(WinState& w, Rank from, std::uint64_t seq) {
    if (auto* ck = world_.checker()) ck->unlock_session(w.rank, w.id, from);
    send_control(w.rank, from, kUnlockAck, w.id, seq);
    w.lockmgr.release(from, [&](const LockManager::Waiter& waiter) {
        queue_or_send_lock_grant(w, waiter.origin);
    });
}

void Rma::on_unlock_ack(WinState& w, Rank from, std::uint64_t seq) {
    const auto [e, ps] = awaited(w, from, kUnlockAck, seq);
    // No pending unlock: the epoch was aborted with its link down.
    if (e == nullptr) {
        ++stats_[static_cast<std::size_t>(w.rank)].protocol_errors;
        return;
    }
    ps->unlock_acked = true;
    if (--e->outstanding == 0) std::erase(w.awaiting, e);
    // An aborted epoch's unlock only gave the lock back.
    if (e->phase != Epoch::Phase::Completed) complete_if_done(w, e);
}

std::uint64_t Rma::exposure_phase_key(const WinState& w, Rank origin) const {
    // EpochList iterates in insertion (= seq) order: the first match is the
    // oldest active exposure-side epoch naming this origin.
    for (const auto& e : w.active) {
        if (e->exposure_side() && e->names(origin)) return e->seq;
    }
    return 0;
}

void Rma::on_data(WinState& w, net::Packet&& p) {
    const auto kind = static_cast<OpKind>(p.header[1]);
    const std::size_t disp = p.header[2];
    const std::uint64_t op_id = p.header[3];
    const TypeId type = unpack_type(p.header[4]);
    const ReduceOp rop = unpack_rop(p.header[4]);
    const std::size_t esz = type_size(type);

    if (auto* ck = world_.checker()) {
        // CAS packs [desired][compare] but touches one element; everything
        // else modifies exactly payload-many bytes at the window.
        const std::size_t len =
            kind == OpKind::CompareAndSwap ? esz : p.payload.size();
        // No-reply transfers carry the op id in header[5] (header[3] is the
        // reply-routing slot, 0 for them).
        const std::uint64_t id = op_id != 0 ? op_id : p.header[5];
        ck->remote_access(w.rank, w.id, p.src, kind, disp, len, id,
                          exposure_phase_key(w, p.src));
    }

    switch (kind) {
        case OpKind::Put:
            if (disp + p.payload.size() > w.mem.size()) {
                throw std::out_of_range("put beyond window bounds");
            }
            std::memcpy(w.mem.data() + disp, p.payload.data(), p.payload.size());
            break;
        case OpKind::Accumulate:
            if (disp + p.payload.size() > w.mem.size()) {
                throw std::out_of_range("accumulate beyond window bounds");
            }
            apply_reduce(rop, type, w.mem.data() + disp, p.payload.data(),
                         p.payload.size() / esz);
            break;
        case OpKind::GetAccumulate:
        case OpKind::FetchAndOp: {
            if (disp + p.payload.size() > w.mem.size()) {
                throw std::out_of_range("get_accumulate beyond window bounds");
            }
            net::Packet reply;
            reply.src = w.rank;
            reply.dst = p.src;
            reply.kind = kGetReply;
            reply.header[0] = w.id;
            reply.header[3] = op_id;
            reply.payload.assign(w.mem.data() + disp,
                                 w.mem.data() + disp + p.payload.size());
            apply_reduce(rop, type, w.mem.data() + disp, p.payload.data(),
                         p.payload.size() / esz);
            world_.fabric().send(std::move(reply));
            break;
        }
        case OpKind::CompareAndSwap: {
            if (disp + esz > w.mem.size()) {
                throw std::out_of_range("compare_and_swap beyond window bounds");
            }
            net::Packet reply;
            reply.src = w.rank;
            reply.dst = p.src;
            reply.kind = kGetReply;
            reply.header[0] = w.id;
            reply.header[3] = op_id;
            reply.payload.assign(w.mem.data() + disp, w.mem.data() + disp + esz);
            const std::byte* desired = p.payload.data();
            const std::byte* compare = p.payload.data() + esz;
            if (std::memcmp(w.mem.data() + disp, compare, esz) == 0) {
                std::memcpy(w.mem.data() + disp, desired, esz);
            }
            world_.fabric().send(std::move(reply));
            break;
        }
        case OpKind::Get:
            throw std::logic_error("get must arrive as kGetReq");
    }
}

void Rma::on_get_req(WinState& w, net::Packet&& p) {
    const std::size_t disp = p.header[2];
    const std::size_t bytes = p.header[5];
    if (auto* ck = world_.checker()) {
        ck->remote_access(w.rank, w.id, p.src, OpKind::Get, disp, bytes,
                          p.header[3], exposure_phase_key(w, p.src));
    }
    if (disp + bytes > w.mem.size()) {
        throw std::out_of_range("get beyond window bounds");
    }
    net::Packet reply;
    reply.src = w.rank;
    reply.dst = p.src;
    reply.kind = kGetReply;
    reply.header[0] = w.id;
    reply.header[3] = p.header[3];
    reply.payload.assign(w.mem.data() + disp, w.mem.data() + disp + bytes);
    world_.fabric().send(std::move(reply));
}

void Rma::on_get_reply(WinState& w, net::Packet&& p) {
    const std::uint64_t op_id = p.header[3];
    auto it = w.pending_replies.find(op_id);
    if (it == w.pending_replies.end()) {
        // Reply for an op whose epoch was aborted meanwhile: drop.
        ++stats_[static_cast<std::size_t>(w.rank)].protocol_errors;
        return;
    }
    auto [e, op] = it->second;
    w.pending_replies.erase(it);
    if (e->phase == Epoch::Phase::Completed) {
        // Defense in depth: an aborted epoch's entries are erased from
        // pending_replies, so this lookup should never hit one — but if it
        // ever does, origin_out may already be reused by the application
        // and must not be written.
        ++stats_[static_cast<std::size_t>(w.rank)].protocol_errors;
        return;
    }
    if (op->origin_out != nullptr) {
        std::memcpy(op->origin_out, p.payload.data(), p.payload.size());
    }
    op->local_done = true;
    note_op_completion_for_flushes(w, *op, /*local_event=*/true);
    on_op_remote_complete(w, e, op.get());
}

void Rma::on_fence_done(WinState& w, Rank from, std::uint64_t fence_seq) {
    const auto it = std::find_if(
        w.fence_dones.begin(), w.fence_dones.end(),
        [&](const auto& d) { return d.first == fence_seq; });
    if (it != w.fence_dones.end()) {
        ++it->second;
    } else {
        w.fence_dones.emplace_back(fence_seq, 1);
    }
    size_counters(w);
    auto& hw = w.fence_done_from[static_cast<std::size_t>(from)];
    hw = std::max(hw, fence_seq);
    // A fence-done moves no grant, op count or close state, so nothing
    // becomes issuable or notifiable: only this fence can complete. If its
    // epoch is not active yet, the close-time drive reads the count.
    if (w.fence && w.fence->fence_seq == fence_seq) {
        complete_if_done(w, w.fence);
    }
}

void Rma::on_acc_rts(WinState& w, net::Packet&& p) {
    // Target allocates its intermediate buffer (modelled as latency only)
    // and clears the origin to send.
    send_control(w.rank, p.src, kAccCts, w.id, p.header[1]);
}

void Rma::on_acc_cts(WinState& w, net::Packet&& p) {
    auto it = w.pending_acc_rndv.find(p.header[1]);
    if (it == w.pending_acc_rndv.end()) {
        // CTS for an op whose epoch was aborted meanwhile: drop.
        ++stats_[static_cast<std::size_t>(w.rank)].protocol_errors;
        return;
    }
    auto [e, op] = it->second;
    w.pending_acc_rndv.erase(it);
    send_op_data(w, e, op);
    PeerState& ps = e->peer.at(op->target);
    if (op->acc_seq != 0) ++ps.acc_sent;
    op->local_done = true;
    note_op_completion_for_flushes(w, *op, /*local_event=*/true);
    // The rendezvous transfer's data is on the wire now: any younger
    // accumulate toward this target that may_issue_op held back waiting
    // for it becomes issuable.
    drive_peer(w, e, op->target, ps);
}

// ========================================================== fault handling

void Rma::on_link_down(Rank src, Rank dst) {
    abort_epochs_toward(src, dst, NBE_ERR_LINK_DOWN);
    if (src != dst) abort_epochs_toward(dst, src, NBE_ERR_LINK_DOWN);
}

void Rma::abort_epochs_toward(Rank r, Rank peer, Status s) {
    for (auto& wptr : wins_[static_cast<std::size_t>(r)]) {
        WinState& w = *wptr;
        // Every live epoch is active or deferred, and every active one is
        // older than every deferred one: this walk is ascending seq order.
        std::vector<EpochPtr> doomed;
        for (const auto& e : w.active) {
            if (e->names(peer)) doomed.push_back(e);
        }
        for (const auto& e : w.deferred) {
            if (e->names(peer)) doomed.push_back(e);
        }
        // Mark them all before retiring any: each retirement runs an
        // activation scan, and can_activate refuses a marked epoch, so no
        // doomed deferred epoch sends traffic before its turn here.
        for (const auto& e : doomed) e->error = s;
        for (const auto& e : doomed) {
            if (e->phase != Epoch::Phase::Completed) retire_epoch(w, e, s);
        }
    }
}

std::vector<obs::Record> Rma::diagnostic_records() const {
    std::vector<obs::Record> out;
    for (Rank r = 0; r < world_.nranks(); ++r) {
        for (const auto& wptr : wins_[static_cast<std::size_t>(r)]) {
            const WinState& w = *wptr;
            auto record = [&](const Epoch& e) {
                std::uint32_t granted = 0;
                std::uint32_t done = 0;
                std::uint32_t total = 0;
                std::string waiting;  // peers still blocking this epoch
                std::string peers = "[";
                std::size_t listed = 0;
                auto visit = [&](Rank t, const PeerState& ps) {
                    if (listed < 8) {
                        if (listed++ != 0) peers += ',';
                        peers += std::to_string(t);
                    }
                    if (ps.granted) ++granted;
                    done += ps.ops_done;
                    total += ps.ops_total;
                    if (!ps.granted || ps.ops_done != ps.ops_total) {
                        if (!waiting.empty()) waiting += ',';
                        waiting += std::to_string(t);
                        if (!ps.granted) {
                            waiting += ":ungranted(a=" +
                                       std::to_string(ps.access_id) + ",g=" +
                                       std::to_string(w.granted_by(t)) +
                                       ")";
                        } else {
                            waiting += ":ops(" + std::to_string(ps.ops_done) +
                                       "/" + std::to_string(ps.ops_total) +
                                       ")";
                        }
                    }
                };
                if (e.kind == EpochKind::Fence) {
                    // The ranks without ops are idle peers: granted once
                    // the active fence's id toward them is.
                    for_each_rank(e.peer, e.group_size,
                                  [&](Rank t, const PeerState* ps) {
                                      if (ps != nullptr) return visit(t, *ps);
                                      PeerState idle;
                                      if (e.phase == Epoch::Phase::Active) {
                                          const auto i =
                                              static_cast<std::size_t>(t);
                                          idle.access_id = w.fence_access[i];
                                          idle.granted =
                                              idle.access_id <= w.g[i];
                                      }
                                      visit(t, idle);
                                  });
                } else {
                    for (const auto& [t, ps] : e.peer) visit(t, ps);
                }
                if (e.group_size > 8) peers += ",...";
                peers += ']';
                obs::Record rec("rma.epoch");
                rec.kv("rank", r)
                    .kv("win", static_cast<std::uint64_t>(w.id))
                    .kv("seq", e.seq)
                    .kv("kind", to_string(e.kind))
                    .kv("phase", e.phase == Epoch::Phase::Deferred
                                     ? "deferred"
                                     : "active")
                    .kv("state", e.closed_app ? "closed" : "open")
                    .kv("peers", peers)
                    .kv("granted", std::to_string(granted) + "/" +
                                       std::to_string(e.group_size))
                    .kv("ops_done", std::to_string(done) + "/" +
                                        std::to_string(total));
                if (!waiting.empty()) rec.kv("waiting", waiting);
                out.push_back(std::move(rec));
            };
            // Every live epoch, in ascending seq order (see
            // abort_epochs_toward).
            for (const auto& e : w.active) record(*e);
            for (const auto& e : w.deferred) record(*e);
            if (w.lockmgr.held() || w.lockmgr.queue_length() > 0) {
                obs::Record rec("rma.lockmgr");
                rec.kv("rank", r)
                    .kv("win", static_cast<std::uint64_t>(w.id))
                    .kv("excl_holder", w.lockmgr.exclusive_holder())
                    .kv("shared_count", w.lockmgr.shared_count())
                    .kv("queued",
                        static_cast<std::uint64_t>(w.lockmgr.queue_length()));
                out.push_back(std::move(rec));
            }
        }
    }
    return out;
}

std::string Rma::diagnostic_dump() const {
    return obs::render_records(diagnostic_records(), "rma open epochs");
}

void Rma::sweep(Rank r) { ++stats_[static_cast<std::size_t>(r)].sweeps; }

}  // namespace nbe::rma
