#include "net/fabric.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

#include "obs/obs.hpp"

namespace nbe::net {

namespace {

/// Corruption injection damages this wire copy only: mutable_data() does a
/// copy-on-write when the buffer is shared (it always is here — the
/// authoritative InFlight/sender copy holds a reference), so the original
/// payload stays intact for retransmission. The receive path discards the
/// frame before reading it; flipping real bytes keeps the COW machinery
/// exercised under the fault-injection suite and sanitizers.
void corrupt_wire_copy(Packet& w) {
    if (!w.payload.empty()) w.payload.mutable_data()[0] ^= std::byte{0xFF};
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, int nranks, FabricConfig cfg)
    : engine_(engine),
      nranks_(nranks),
      cfg_(cfg),
      reliable_(cfg.fault.enabled),
      fault_rng_(cfg.fault.seed),
      wire_pool_(sim::BlockPool::create("fabric.packet")),
      done_pool_(sim::BlockPool::create("fabric.completion")) {
    if (nranks <= 0) throw std::invalid_argument("Fabric: nranks must be > 0");
    if (cfg.ranks_per_node <= 0) {
        throw std::invalid_argument("Fabric: ranks_per_node must be > 0");
    }
    if (cfg.tx_credits <= 0) {
        throw std::invalid_argument("Fabric: tx_credits must be > 0");
    }
    const std::size_t n = asz(nranks);
    handlers_.resize(n);
    nic_tx_free_.assign(n, 0);
    shm_tx_free_.assign(n, 0);
    reg_.resize(n);
    if (reliable_) {
        credits_.assign(n, cfg.tx_credits);
        stalled_.resize(n);
    } else {
        credit_ret_.assign(n * asz(cfg.tx_credits), 0);
        credit_head_.assign(n, 0);
        wire_.resize(2 * n);
    }
    diag_id_ = engine_.add_diagnostic([this] { return diagnostic_dump(); });
}

Fabric::~Fabric() {
    engine_.remove_diagnostic(diag_id_);
    // Queued frames own their boxes, and a box its payload reference and
    // completion record; the chunks go with chunks_.
    for (Channel& q : wire_) {
        while (q.count != 0) {
            Completion* done = nullptr;
            (void)unpack(pop_frame(q), done);
            own(done).reset();
        }
    }
}

Completion* Fabric::box(Completion&& done) {
    if (!done.on_acked && !done.on_error) return nullptr;
    return ::new (done_pool_->acquire(sizeof(Completion)))
        Completion(std::move(done));
}

Fabric::CompletionPtr Fabric::own(Completion* done) const {
    return done != nullptr ? CompletionPtr(done, done_pool_) : CompletionPtr();
}

Fabric::ChunkCounts Fabric::wire_chunks() const noexcept {
    return {chunks_.size(), n_free_chunks_};
}

void Fabric::set_handler(Rank r, Handler h) { handlers_.at(asz(r)) = std::move(h); }

void Fabric::set_obs(obs::Obs* o) {
    obs_ = o;
    if (!o) return;
    o->metrics().add_publisher([this](obs::Registry& reg) {
        reg.counter("fabric.packets_sent").set(stats_.packets_sent);
        reg.counter("fabric.bytes_sent").set(stats_.bytes_sent);
        reg.counter("fabric.credit_stalls").set(stats_.credit_stalls);
        reg.counter("fabric.pin_hits").set(stats_.pin_hits);
        reg.counter("fabric.pin_misses").set(stats_.pin_misses);
        reg.counter("fabric.drops_injected").set(stats_.drops_injected);
        reg.counter("fabric.retransmits").set(stats_.retransmits);
        reg.counter("fabric.dup_delivered").set(stats_.dup_delivered);
        reg.counter("fabric.corrupt_detected").set(stats_.corrupt_detected);
        reg.counter("fabric.links_failed").set(stats_.links_failed);
    });
}

obs::Tracer* Fabric::tracer() const noexcept {
    return obs_ && obs_->tracer().enabled() ? &obs_->tracer() : nullptr;
}

std::size_t Fabric::wire_bytes(const Packet& p) const noexcept {
    if (p.payload.empty()) return kControlBytes;
    return p.payload.size() + kHeaderBytes;
}

sim::Duration Fabric::draw_jitter() {
    if (cfg_.fault.jitter_max <= 0) return 0;
    return static_cast<sim::Duration>(
        fault_rng_.below(static_cast<std::uint64_t>(cfg_.fault.jitter_max) + 1));
}

bool Fabric::link_failed(Rank src, Rank dst) const {
    // Every epoch open asks this for each peer, both ways.
    if (stats_.links_failed == 0) return false;
    const auto it = links_.find(link_key(src, dst));
    return it != links_.end() && it->second.failed;
}

void Fabric::fail_link_now(Rank src, Rank dst) {
    if (src < 0 || src >= nranks_ || dst < 0 || dst >= nranks_) {
        throw std::out_of_range("Fabric::fail_link_now: rank out of range");
    }
    const std::uint64_t key = link_key(src, dst);
    fail_link(key, links_[key], /*trigger_seq=*/0);
}

void Fabric::send(Packet&& p, sim::Duration extra_src_delay,
                  Completion&& done) {
    if (p.src < 0 || p.src >= nranks_ || p.dst < 0 || p.dst >= nranks_) {
        throw std::out_of_range("Fabric::send: rank out of range (src=" +
                                std::to_string(p.src) +
                                ", dst=" + std::to_string(p.dst) + ")");
    }
    // src == dst is valid loopback: it takes the intranode channel
    // (same_node is trivially true) and needs no special casing below.
    const Rank src = p.src;
    const bool internode = !same_node(p.src, p.dst);
    Completion* c = box(std::move(done));

    if (reliable_) {
        const std::uint64_t key = link_key(p.src, p.dst);
        LinkState& l = links_[key];
        if (l.failed) {
            post_error(own(c), NBE_ERR_LINK_DOWN);
            return;
        }
        const std::uint64_t seq = l.next_tx++;
        InFlight f;
        f.pkt = std::move(p);
        f.done = own(c);
        f.extra_delay = extra_src_delay;
        f.internode = internode;
        InFlight& fl = l.unacked.emplace_back(std::move(f));
        if (internode) {
            auto& cr = credits_[asz(src)];
            if (cr == 0) {
                ++stats_.credit_stalls;
                if (auto* t = tracer()) {
                    t->instant(src, "fabric", "credit.stall",
                               {{"dst", fl.pkt.dst}, {"kind", fl.pkt.kind}});
                }
                stalled_[asz(src)].push_back(Stalled{key, seq});
                return;
            }
            --cr;
            fl.credit_held = true;
        }
        transmit_rel(l, key, seq);
        return;
    }
    transmit(std::move(p), c, extra_src_delay);
}

// ------------------------------------------------------------ lossless path

void Fabric::transmit(Packet&& p, Completion* done,
                      sim::Duration extra_src_delay) {
    const Rank src = p.src;
    const bool internode = !same_node(src, p.dst);
    const std::size_t bytes = wire_bytes(p);
    const double bw = internode ? kInterBandwidth : kIntraBandwidth;
    const sim::Duration lat = internode ? kInterLatency : kIntraLatency;
    auto& tx_free = internode ? nic_tx_free_[asz(src)] : shm_tx_free_[asz(src)];

    // An internode packet takes the credit that returns first: the slot
    // at the ring's head, which it then refills with its own return time.
    sim::Time ready = engine_.now();
    sim::Time* credit = nullptr;
    if (internode) {
        const std::size_t c = asz(cfg_.tx_credits);
        std::size_t& head = credit_head_[asz(src)];
        credit = &credit_ret_[asz(src) * c + head];
        head = head + 1 == c ? 0 : head + 1;
        if (*credit > ready) {
            ++stats_.credit_stalls;
            if (auto* t = tracer()) {
                t->instant(src, "fabric", "credit.stall",
                           {{"dst", p.dst}, {"kind", p.kind}});
            }
            ready = *credit;
        }
    }
    ready += kSwOverhead + extra_src_delay;
    const sim::Time start = std::max(ready, tx_free);
    const sim::Time end = start + sim::serialization_delay(bytes, bw);
    tx_free = end;
    const sim::Time delivered_at = end + lat;
    if (credit != nullptr) *credit = delivered_at + lat;

    ++stats_.packets_sent;
    stats_.bytes_sent += bytes;
    if (auto* t = tracer()) {
        t->complete_at(src, "fabric", "pkt.tx", start, end,
                       {{"kind", p.kind},
                        {"dst", p.dst},
                        {"bytes", static_cast<std::int64_t>(bytes)}});
    }

    // Only the channel's head is in the calendar; a frame behind it enters
    // when the one ahead is delivered.
    const std::size_t ch = channel(src, internode);
    Channel& q = wire_[ch];
    if (q.count == 0) {
        engine_.schedule_at(delivered_at, [this, ch] { on_delivered(ch); });
    }
    push_frame(q, pack(std::move(p), done, delivered_at));
}

void Fabric::on_delivered(std::size_t ch) {
    Channel& q = wire_[ch];
    const Frame f = pop_frame(q);
    if (q.count != 0) {
        engine_.schedule_at(q.head->slots[q.first].delivered_at,
                            [this, ch] { on_delivered(ch); });
    }
    Completion* c = nullptr;
    Packet p = unpack(f, c);
    CompletionPtr done = own(c);
    deliver_to_handler(std::move(p));
    // The initiator-side completion (hardware ack) returns one more
    // latency later; the credit's return time is already in the ring.
    if (done && done->on_acked) {
        const bool internode = ch % 2 == 0;
        engine_.schedule_after(
            internode ? kInterLatency : kIntraLatency,
            [this, done = std::move(done)] { done->on_acked(engine_.now()); });
    }
}

Fabric::Frame Fabric::pack(Packet&& p, Completion* done, sim::Time at) {
    Frame f{at,
            nullptr,
            p.header[1],
            p.src,
            p.dst,
            p.kind,
            static_cast<std::uint32_t>(p.header[0])};
    if (done != nullptr || !p.payload.empty() ||
        p.header[0] > UINT32_MAX ||
        (p.header[2] | p.header[3] | p.header[4] | p.header[5]) != 0) {
        f.full = ::new (wire_pool_->acquire(sizeof(Boxed)))
            Boxed{std::move(p), done};
    }
    return f;
}

Packet Fabric::unpack(const Frame& f, Completion*& done) {
    if (f.full == nullptr) {
        Packet p;
        p.src = f.src;
        p.dst = f.dst;
        p.kind = f.kind;
        p.header[0] = f.header0;
        p.header[1] = f.header1;
        done = nullptr;
        return p;
    }
    Packet p = std::move(f.full->pkt);
    done = f.full->done;
    f.full->~Boxed();
    wire_pool_->release(f.full, sizeof(Boxed));
    return p;
}

void Fabric::push_frame(Channel& q, const Frame& f) {
    if (q.count == 0) {
        q.head = q.tail = take_chunk();
        q.first = 0;
    } else if ((q.first + q.count) % FrameChunk::kFrames == 0) {
        q.tail->next = take_chunk();
        q.tail = q.tail->next;
    }
    q.tail->slots[(q.first + q.count) % FrameChunk::kFrames] = f;
    ++q.count;
}

Fabric::Frame Fabric::pop_frame(Channel& q) {
    const Frame f = q.head->slots[q.first];
    --q.count;
    // A chunk goes back to the free list as soon as the channel drains
    // past it, so the wire holds only the chunks its queued frames need.
    if (q.count == 0) {
        give_chunk(q.head);
        q.head = q.tail = nullptr;
        q.first = 0;
    } else if (++q.first == FrameChunk::kFrames) {
        FrameChunk* done = q.head;
        q.head = done->next;
        q.first = 0;
        give_chunk(done);
    }
    return f;
}

Fabric::FrameChunk* Fabric::take_chunk() {
    FrameChunk* c = free_chunks_;
    if (c == nullptr) {
        chunks_.push_back(std::make_unique_for_overwrite<FrameChunk>());
        return chunks_.back().get();
    }
    free_chunks_ = c->next;
    --n_free_chunks_;
    c->next = nullptr;
    return c;
}

void Fabric::give_chunk(FrameChunk* c) noexcept {
    c->next = free_chunks_;
    free_chunks_ = c;
    ++n_free_chunks_;
}

void Fabric::deliver_to_handler(Packet&& p) {
    auto& handler = handlers_[asz(p.dst)];
    if (!handler) {
        throw std::logic_error("Fabric: no handler registered for rank " +
                               std::to_string(p.dst));
    }
    if (auto* t = tracer()) {
        t->instant(p.dst, "fabric", "pkt.rx", {{"kind", p.kind}, {"src", p.src}});
    }
    handler(std::move(p));
}

// ------------------------------------------------------------ reliable path

void Fabric::transmit_rel(LinkState& l, std::uint64_t key, std::uint64_t seq) {
    InFlight& f = *l.in_flight(seq);
    const Rank src = f.pkt.src;
    const Rank dst = f.pkt.dst;
    const bool internode = !same_node(src, dst);
    const std::size_t bytes = wire_bytes(f.pkt);
    const double bw = internode ? kInterBandwidth : kIntraBandwidth;
    const sim::Duration lat = internode ? kInterLatency : kIntraLatency;
    auto& tx_free = internode ? nic_tx_free_[asz(src)] : shm_tx_free_[asz(src)];

    const sim::Time ready = engine_.now() + kSwOverhead + f.extra_delay;
    f.extra_delay = 0;  // registration pin is charged once, not per retry
    const sim::Time start = std::max(ready, tx_free);
    const sim::Time end = start + sim::serialization_delay(bytes, bw);
    tx_free = end;

    if (f.retries == 0) ++stats_.packets_sent;
    stats_.bytes_sent += bytes;
    if (auto* t = tracer()) {
        t->complete_at(src, "fabric", "pkt.tx", start, end,
                       {{"kind", f.pkt.kind},
                        {"dst", dst},
                        {"bytes", static_cast<std::int64_t>(bytes)},
                        {"seq", static_cast<std::int64_t>(seq)},
                        {"retry", f.retries}});
    }

    bool dropped = fault_rng_.uniform() < cfg_.fault.drop_prob;
    const bool corrupted = fault_rng_.uniform() < cfg_.fault.corrupt_prob;
    const bool duplicated = fault_rng_.uniform() < cfg_.fault.dup_prob;
    const sim::Duration jitter = draw_jitter();
    const sim::Duration dup_jitter = duplicated ? draw_jitter() : 0;
    if (cfg_.fault.down_at(src, dst, start)) dropped = true;

    if (dropped) {
        ++stats_.drops_injected;
    } else {
        auto boxed = sim::pool_make<Wire>(wire_pool_, Wire{f.pkt, seq});
        if (corrupted) {
            boxed->corrupt = true;
            corrupt_wire_copy(boxed->pkt);
        }
        engine_.schedule_at(end + lat + jitter,
                            [this, boxed = std::move(boxed)]() mutable {
                                on_wire_rel(std::move(boxed));
                            });
        if (duplicated) {
            auto dup = sim::pool_make<Wire>(wire_pool_, Wire{f.pkt, seq});
            engine_.schedule_at(end + lat + dup_jitter,
                                [this, dup = std::move(dup)]() mutable {
                                    on_wire_rel(std::move(dup));
                                });
        }
    }

    // Arm the retransmission timer past the deterministic round-trip
    // estimate for this frame; the margin backs off exponentially.
    double margin = static_cast<double>(kRtoMargin);
    for (int i = 0; i < f.retries; ++i) margin *= kRtoBackoff;
    const std::uint64_t gen = ++f.timer_gen;
    engine_.schedule_at(end + 2 * lat + static_cast<sim::Duration>(margin),
                        [this, key, seq, gen] { on_timeout(key, seq, gen); });
}

void Fabric::on_wire_rel(WirePtr wire) {
    // The wire copy carries everything the receive path needs; recover the
    // link key and sequence from it so the delivery event's capture is just
    // {this, handle}.
    const std::uint64_t key = link_key(wire->pkt.src, wire->pkt.dst);
    const std::uint64_t seq = wire->seq;
    const bool corrupted = wire->corrupt;
    Packet w = std::move(wire->pkt);
    wire.reset();  // frame back to the pool before handler-driven sends
    deliver_rel(key, seq, corrupted, std::move(w));
}

void Fabric::deliver_rel(std::uint64_t key, std::uint64_t seq, bool corrupted,
                         Packet&& wire) {
    auto it = links_.find(key);
    if (it == links_.end()) return;
    LinkState& l = it->second;
    if (l.failed) return;
    if (corrupted) {
        // Failed checksum: discard without acking; the sender's timer will
        // retransmit the frame.
        ++stats_.corrupt_detected;
        return;
    }
    // Collect in-order deliveries first: the handlers below may re-enter
    // send() and rehash links_, so `l` must not be touched afterwards.
    std::vector<Packet> ready;
    if (seq < l.rx_next) {
        ++stats_.dup_delivered;  // already consumed; re-ack (ack was lost)
    } else if (seq == l.rx_next) {
        ++l.rx_next;
        ready.push_back(std::move(wire));
        auto it = l.rx_ooo.begin();
        for (; it != l.rx_ooo.end() && it->first == l.rx_next; ++it) {
            ready.push_back(std::move(it->second));
            ++l.rx_next;
        }
        l.rx_ooo.erase(l.rx_ooo.begin(), it);
    } else if (!l.rx_ooo.try_emplace(seq, std::move(wire)).second) {
        ++stats_.dup_delivered;
    }
    send_ack(key, l);
    for (auto& p : ready) deliver_to_handler(std::move(p));
}

void Fabric::send_ack(std::uint64_t key, const LinkState& l) {
    const Rank src = static_cast<Rank>(key / static_cast<std::uint64_t>(nranks_));
    const Rank dst = static_cast<Rank>(key % static_cast<std::uint64_t>(nranks_));
    // ACKs ride the return path as 64-bit piggyback frames: latency only,
    // no bandwidth or credit cost. They are still subject to loss.
    if (fault_rng_.uniform() < cfg_.fault.drop_prob) {
        ++stats_.drops_injected;
        return;
    }
    const sim::Duration lat =
        same_node(src, dst) ? kIntraLatency : kInterLatency;
    const std::uint64_t upto = l.rx_next - 1;
    engine_.schedule_after(lat, [this, key, upto] { on_ack(key, upto); });
}

void Fabric::on_ack(std::uint64_t key, std::uint64_t upto) {
    auto it = links_.find(key);
    if (it == links_.end()) return;
    LinkState& l = it->second;
    if (l.failed || upto <= l.acked) return;
    const auto acked_now = l.unacked.begin() +
                           static_cast<std::ptrdiff_t>(upto - l.acked);
    l.acked = upto;
    std::vector<InFlight> completed(std::make_move_iterator(l.unacked.begin()),
                                    std::make_move_iterator(acked_now));
    l.unacked.erase(l.unacked.begin(), acked_now);
    // Callbacks and credit returns may re-enter the fabric; `l` is dead
    // from here on.
    const sim::Time now = engine_.now();
    for (auto& f : completed) {
        if (f.credit_held) return_credit(f.pkt.src);
        if (f.done && f.done->on_acked) f.done->on_acked(now);
    }
}

void Fabric::on_timeout(std::uint64_t key, std::uint64_t seq,
                        std::uint64_t gen) {
    auto it = links_.find(key);
    if (it == links_.end()) return;
    LinkState& l = it->second;
    if (l.failed) return;
    InFlight* fp = l.in_flight(seq);
    if (fp == nullptr) return;  // acked in the meantime
    InFlight& f = *fp;
    if (f.timer_gen != gen) return;           // superseded by a retransmission
    if (f.retries >= kMaxRetries) {
        fail_link(key, l, seq);
        return;
    }
    ++f.retries;
    ++stats_.retransmits;
    if (auto* t = tracer()) {
        t->instant(f.pkt.src, "fabric", "pkt.retransmit",
                   {{"dst", f.pkt.dst},
                    {"seq", static_cast<std::int64_t>(seq)},
                    {"retry", f.retries}});
    }
    transmit_rel(l, key, seq);
}

void Fabric::fail_link(std::uint64_t key, LinkState& l,
                       std::uint64_t trigger_seq) {
    if (l.failed) return;
    l.failed = true;
    ++stats_.links_failed;
    const Rank src = static_cast<Rank>(key / static_cast<std::uint64_t>(nranks_));
    const Rank dst = static_cast<Rank>(key % static_cast<std::uint64_t>(nranks_));
    if (auto* t = tracer()) {
        t->instant(src, "fabric", "link.fail", {{"dst", dst}});
    }

    // Drop queue entries for this link first: their packets are completed
    // (with an error) through the unacked sweep below.
    auto& q = stalled_[asz(src)];
    q.erase(std::remove_if(q.begin(), q.end(),
                           [&](const Stalled& s) { return s.link_key == key; }),
            q.end());

    const std::uint64_t first_seq = l.acked + 1;
    std::vector<InFlight> pending(std::make_move_iterator(l.unacked.begin()),
                                  std::make_move_iterator(l.unacked.end()));
    l.unacked.clear();
    l.rx_ooo.clear();
    // `l` must not be used past this point: credit returns below can
    // transmit stalled packets and rehash links_.
    for (std::size_t i = 0; i < pending.size(); ++i) {
        InFlight& f = pending[i];
        const std::uint64_t seq = first_seq + i;
        const Status st =
            seq == trigger_seq ? NBE_ERR_TIMEOUT : NBE_ERR_LINK_DOWN;
        if (f.credit_held) return_credit(src);
        post_error(std::move(f.done), st);
    }
    if (link_down_handler_) {
        engine_.schedule_at(engine_.now(),
                            [this, src, dst] { link_down_handler_(src, dst); });
    }
}

void Fabric::post_error(CompletionPtr done, Status s) {
    if (!done || !done->on_error) return;
    engine_.schedule_at(engine_.now(),
                        [done = std::move(done), s] { done->on_error(s); });
}

// ------------------------------------------------------------------ credits

int Fabric::credits(Rank r) const {
    if (r < 0 || r >= nranks_) {
        throw std::out_of_range("Fabric::credits: rank out of range");
    }
    if (reliable_) return credits_[asz(r)];
    const std::size_t c = asz(cfg_.tx_credits);
    int back = 0;
    for (std::size_t i = 0; i < c; ++i) {
        if (credit_ret_[asz(r) * c + i] <= engine_.now()) ++back;
    }
    return back;
}

void Fabric::return_credit(Rank src) {
    // Reliable path only: the credit goes straight to the oldest stalled
    // packet whose link is still up.
    auto& q = stalled_[asz(src)];
    while (!q.empty()) {
        const Stalled s = q.front();
        q.pop_front();
        auto it = links_.find(s.link_key);
        InFlight* f = it == links_.end() || it->second.failed
                          ? nullptr
                          : it->second.in_flight(s.seq);
        if (f == nullptr) continue;  // stale entry (link failed meanwhile)
        f->credit_held = true;
        transmit_rel(it->second, s.link_key, s.seq);
        return;
    }
    ++credits_[asz(src)];
}

sim::Duration Fabric::pin(Rank r, std::uint64_t key, std::size_t bytes) {
    if (bytes < kPinThreshold) return 0;
    auto& cache = reg_[asz(r)];
    if (auto it = cache.map.find(key); it != cache.map.end()) {
        cache.lru.splice(cache.lru.begin(), cache.lru, it->second);
        ++stats_.pin_hits;
        return 0;
    }
    ++stats_.pin_misses;
    cache.lru.push_front(key);
    cache.map[key] = cache.lru.begin();
    if (cache.lru.size() > kRegCacheCapacity) {
        cache.map.erase(cache.lru.back());
        cache.lru.pop_back();
    }
    return kPinCost;
}

void Fabric::unpin(Rank r, std::uint64_t key) {
    auto& cache = reg_[asz(r)];
    if (auto it = cache.map.find(key); it != cache.map.end()) {
        cache.lru.erase(it->second);
        cache.map.erase(it);
    }
}

// -------------------------------------------------------------- diagnostics

std::vector<obs::Record> Fabric::diagnostic_records() const {
    std::vector<obs::Record> out;
    out.push_back(obs::Record("fabric.stats")
                      .kv("packets", stats_.packets_sent)
                      .kv("bytes", stats_.bytes_sent)
                      .kv("credit_stalls", stats_.credit_stalls)
                      .kv("drops_injected", stats_.drops_injected)
                      .kv("retransmits", stats_.retransmits)
                      .kv("dup_delivered", stats_.dup_delivered)
                      .kv("corrupt_detected", stats_.corrupt_detected)
                      .kv("links_failed", stats_.links_failed));
    for (Rank r = 0; r < nranks_; ++r) {
        const int avail = credits(r);
        const std::uint64_t nic = reliable_ ? 0 : wire_[channel(r, true)].count;
        const std::uint64_t shm = reliable_ ? 0 : wire_[channel(r, false)].count;
        const std::uint64_t stalled = reliable_ ? stalled_[asz(r)].size() : 0;
        if (avail == cfg_.tx_credits && nic + shm + stalled == 0) continue;
        out.push_back(obs::Record("fabric.rank")
                          .kv("rank", r)
                          .kv("credits", std::to_string(avail) + "/" +
                                             std::to_string(cfg_.tx_credits))
                          .kv("nic_frames", nic)
                          .kv("shm_frames", shm)
                          .kv("stalled", stalled));
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(links_.size());
    for (const auto& [k, l] : links_) {
        if (l.failed || !l.unacked.empty() || !l.rx_ooo.empty()) keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t k : keys) {
        const LinkState& l = links_.at(k);
        out.push_back(
            obs::Record("fabric.link")
                .kv("src", static_cast<std::uint64_t>(
                               k / static_cast<std::uint64_t>(nranks_)))
                .kv("dst", static_cast<std::uint64_t>(
                               k % static_cast<std::uint64_t>(nranks_)))
                .kv("failed", l.failed)
                .kv("unacked", static_cast<std::uint64_t>(l.unacked.size()))
                .kv("rx_ooo", static_cast<std::uint64_t>(l.rx_ooo.size()))
                .kv("acked", l.acked)
                .kv("rx_next", l.rx_next));
    }
    return out;
}

std::string Fabric::diagnostic_dump() const {
    return obs::render_records(diagnostic_records(), "fabric");
}

}  // namespace nbe::net
