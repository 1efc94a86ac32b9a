#include "check/check.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace nbe::check {

namespace {

/// Conflict records are capped so a pathological workload cannot grow the
/// record list without bound; stats_ keeps counting past the cap.
constexpr std::size_t kMaxRecords = 256;

[[nodiscard]] bool is_local(Access a) noexcept {
    return a == Access::LocalLoad || a == Access::LocalStore;
}

[[nodiscard]] bool is_read(Access a) noexcept {
    return a == Access::LocalLoad || a == Access::Read;
}

/// First session entry whose origin is not below `origin`.
template <class Sessions>
auto session_at(Sessions& s, net::Rank origin) {
    return std::lower_bound(
        s.begin(), s.end(), origin,
        [](const auto& e, net::Rank o) { return e.first < o; });
}

[[nodiscard]] std::string range_str(std::size_t lo, std::size_t hi) {
    std::string s = "[";
    s += std::to_string(lo);
    s += ',';
    s += std::to_string(hi);
    s += ')';
    return s;
}

}  // namespace

bool env_enabled() noexcept {
    const char* v = std::getenv("NBE_CHECK");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

Checker::Checker(int nranks, sim::Engine& engine, obs::Obs* obs)
    : engine_(engine), obs_(obs),
      wins_(static_cast<std::size_t>(nranks)),
      fence_calls_(static_cast<std::size_t>(nranks)) {
    if (obs_ != nullptr) {
        obs_->metrics().add_publisher([this](obs::Registry& reg) {
            reg.counter("check.accesses").set(stats_.accesses);
            reg.counter("check.conflicts").set(stats_.conflicts);
            reg.counter("check.epoch_errors").set(stats_.epoch_errors);
            reg.counter("check.phases_closed").set(stats_.phases_closed);
            reg.counter("check.intervals_peak").set(stats_.intervals_peak);
        });
    }
}

Checker::WinShadow& Checker::shadow(net::Rank rank, std::uint32_t win) {
    auto& per_rank = wins_[static_cast<std::size_t>(rank)];
    if (per_rank.size() <= win) per_rank.resize(win + 1);
    auto& fc = fence_calls_[static_cast<std::size_t>(rank)];
    if (fc.size() <= win) fc.resize(win + 1, 0);
    return per_rank[win];
}

void Checker::add_window(net::Rank rank, std::uint32_t win, std::size_t bytes) {
    shadow(rank, win).bytes = bytes;
}

void Checker::note_op(net::Rank origin, std::uint32_t win, std::uint64_t op_id,
                      sim::Time posted_at, std::uint64_t age) {
    ops_[op_key(origin, win, op_id)] = OpInfo{posted_at, age};
}

bool Checker::conflicting(const Interval& a, const Interval& b) {
    if (a.hi <= b.lo || b.hi <= a.lo) return false;  // disjoint ranges
    // Same-process local accesses are program-ordered: never a conflict.
    if (is_local(a.cls) && is_local(b.cls)) return false;
    // Only accesses inside the same synchronization phase can race; local
    // intervals are wildcards (they live until the next sync point, so any
    // phase still open overlaps them).
    if (a.phase != b.phase && a.phase != kLocalPhase && b.phase != kLocalPhase)
        return false;
    if (is_read(a.cls) && is_read(b.cls)) return false;
    if (a.cls == Access::Accum && b.cls == Access::Accum) return false;
    return true;
}

void Checker::record_conflict(net::Rank rank, std::uint32_t win,
                              const Interval& a, const Interval& b) {
    ++stats_.conflicts;
    if (records_.size() >= kMaxRecords) return;
    obs::Record rec("check.conflict");
    rec.kv("rank", static_cast<int>(rank)).kv("win", std::to_string(win));
    const Interval* iv[2] = {&a, &b};
    const char* tag[2] = {"a", "b"};
    for (int i = 0; i < 2; ++i) {
        const Interval& x = *iv[i];
        const std::string p(tag[i]);
        rec.kv(p + "_origin", static_cast<int>(x.origin))
            .kv(p + "_access", to_string(x.cls))
            .kv(p + "_range", range_str(x.lo, x.hi))
            .kv(p + "_at", static_cast<std::int64_t>(x.at));
        if (x.op_id != 0) rec.kv(p + "_op", x.op_id);
        if (x.noted) {
            rec.kv(p + "_posted_at", static_cast<std::int64_t>(x.posted_at))
                .kv(p + "_age", x.age);
        }
    }
    records_.push_back(std::move(rec));
}

void Checker::record_epoch_error(obs::Record rec) {
    ++stats_.epoch_errors;
    if (records_.size() >= kMaxRecords) return;
    records_.push_back(std::move(rec));
}

void Checker::add_interval(net::Rank rank, std::uint32_t win, Interval iv) {
    auto& sh = shadow(rank, win);
    ++stats_.accesses;
    if (iv.hi > sh.bytes && sh.bytes != 0) {
        record_epoch_error(obs::Record("check.epoch")
                               .kv("error", "access outside window")
                               .kv("rank", static_cast<int>(rank))
                               .kv("win", std::to_string(win))
                               .kv("origin", static_cast<int>(iv.origin))
                               .kv("range", range_str(iv.lo, iv.hi))
                               .kv("bytes", std::to_string(sh.bytes)));
    }
    for (const Interval& live : sh.live) {
        if (conflicting(live, iv)) record_conflict(rank, win, live, iv);
    }
    sh.live.push_back(iv);
    if (sh.live.size() > stats_.intervals_peak)
        stats_.intervals_peak = sh.live.size();
}

void Checker::remote_access(net::Rank rank, std::uint32_t win, net::Rank origin,
                            rma::OpKind kind, std::size_t disp, std::size_t len,
                            std::uint64_t op_id, std::uint64_t phase_key) {
    auto& sh = shadow(rank, win);
    std::uint64_t phase = phase_key;
    if (phase == 0) {
        // Passive-target traffic: attribute to the origin's current lock
        // session on this window.
        const auto it = session_at(sh.sessions, origin);
        phase = lock_phase(origin, it != sh.sessions.end() && it->first == origin
                                       ? it->second
                                       : 0);
    }
    Interval iv{origin, access_class(kind), false, disp, disp + len, phase,
                op_id, engine_.now()};
    if (op_id != 0) {
        if (auto it = ops_.find(op_key(origin, win, op_id)); it != ops_.end()) {
            iv.noted = true;
            iv.posted_at = it->second.posted_at;
            iv.age = it->second.age;
            ops_.erase(it);
        }
    }
    add_interval(rank, win, iv);
}

void Checker::local_access(net::Rank rank, std::uint32_t win, std::size_t off,
                           std::size_t len, bool store) {
    add_interval(rank, win,
                 Interval{rank, store ? Access::LocalStore : Access::LocalLoad,
                          false, off, off + len, kLocalPhase, 0,
                          engine_.now()});
}

void Checker::sync_call(net::Rank rank, std::uint32_t win) {
    auto& sh = shadow(rank, win);
    std::erase_if(sh.live,
                  [](const Interval& iv) { return iv.phase == kLocalPhase; });
}

void Checker::phase_complete(net::Rank rank, std::uint32_t win,
                             std::uint64_t phase_key) {
    auto& sh = shadow(rank, win);
    ++stats_.phases_closed;
    std::erase_if(sh.live, [&](const Interval& iv) {
        return iv.phase == phase_key || iv.phase == kLocalPhase;
    });
}

void Checker::unlock_session(net::Rank rank, std::uint32_t win,
                             net::Rank origin) {
    auto& sh = shadow(rank, win);
    ++stats_.phases_closed;
    auto it = session_at(sh.sessions, origin);
    if (it == sh.sessions.end() || it->first != origin) {
        it = sh.sessions.insert(it, {origin, 0});
    }
    const std::uint64_t phase = lock_phase(origin, it->second++);
    std::erase_if(sh.live, [&](const Interval& iv) {
        return iv.phase == phase || iv.phase == kLocalPhase;
    });
}

void Checker::epoch_open(net::Rank rank, std::uint32_t win, rma::EpochKind kind,
                         std::uint64_t /*seq*/,
                         std::span<const net::Rank> peers) {
    shadow(rank, win);  // ensure tables exist
    if (kind == rma::EpochKind::Access) {
        for (net::Rank t : peers) ++gats_balance_[pair_key(rank, t, win)];
    } else if (kind == rma::EpochKind::Exposure) {
        for (net::Rank o : peers) --gats_balance_[pair_key(o, rank, win)];
    }
}

void Checker::fence_asserts(net::Rank rank, std::uint32_t win,
                            unsigned asserts) {
    shadow(rank, win);
    auto& ordinal = fence_calls_[static_cast<std::size_t>(rank)][win];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(win) << 40) ^ ordinal;
    ++ordinal;
    auto [it, inserted] = fence_expected_.emplace(key, asserts);
    if (!inserted && it->second != asserts) {
        record_epoch_error(
            obs::Record("check.epoch")
                .kv("error", "fence assert mismatch")
                .kv("rank", static_cast<int>(rank))
                .kv("win", std::to_string(win))
                .kv("fence", std::to_string(ordinal - 1))
                .kv("asserts", std::to_string(asserts))
                .kv("expected", std::to_string(it->second)));
    }
}

void Checker::usage_error(net::Rank rank, std::uint32_t win, const char* what,
                          std::string detail) {
    obs::Record rec("check.epoch");
    rec.kv("error", what).kv("rank", static_cast<int>(rank))
        .kv("win", std::to_string(win));
    if (!detail.empty()) rec.kv("detail", std::move(detail));
    record_epoch_error(std::move(rec));
}

void Checker::finalize() {
    if (finalized_) return;
    finalized_ = true;
    for (const auto& [key, balance] : gats_balance_) {
        if (balance == 0) continue;
        const auto origin = static_cast<int>(key >> 44);
        const auto target = static_cast<int>((key >> 24) & 0xFFFFF);
        const auto win = static_cast<std::uint32_t>(key & 0xFFFFFF);
        record_epoch_error(
            obs::Record("check.epoch")
                .kv("error", "gats group mismatch")
                .kv("origin", origin)
                .kv("target", target)
                .kv("win", std::to_string(win))
                .kv("balance", static_cast<std::int64_t>(balance))
                .kv("detail", balance > 0
                                  ? "access epochs without matching exposure"
                                  : "exposure epochs without matching access"));
    }
}

Status Checker::status() const noexcept {
    return (stats_.conflicts != 0 || stats_.epoch_errors != 0)
               ? NBE_ERR_SEMANTICS
               : NBE_SUCCESS;
}

}  // namespace nbe::check

