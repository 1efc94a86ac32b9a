#include "rt/world.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "net/payload.hpp"
#include "sim/callback.hpp"
#include "sim/pool.hpp"

namespace nbe::rt {

World::World(JobConfig cfg)
    : cfg_(cfg),
      obs_(engine_, cfg.obs),
      fabric_(engine_, cfg.ranks, cfg.fabric) {
    if (cfg.check) {
        checker_ =
            std::make_unique<check::Checker>(cfg.ranks, engine_, &obs_);
    }
    fabric_.set_obs(&obs_);
    ctxs_.reserve(static_cast<std::size_t>(cfg.ranks));
    for (Rank r = 0; r < cfg.ranks; ++r) {
        ctxs_.push_back(std::make_unique<RankCtx>(r, cfg.seed));
        fabric_.set_handler(r, [this, r](net::Packet&& p) {
            handle_packet(r, std::move(p));
        });
    }
    fabric_.set_link_down_handler(
        [this](Rank src, Rank dst) { on_link_down(src, dst); });
    // A deadlock report includes the last few trace events of every rank
    // when tracing is on — the timeline leading into the hang.
    engine_.add_diagnostic([this] { return obs_.tracer().render_recent(); });
    // Pull-publish per-rank runtime stats into the unified registry.
    obs_.metrics().add_publisher([this](obs::Registry& reg) {
        sim::Duration mpi_total = 0;
        std::uint64_t calls_total = 0, errors_total = 0;
        for (const auto& c : ctxs_) {
            const std::string p = "rt.rank" + std::to_string(c->rank) + ".";
            reg.counter(p + "time_in_mpi_ns")
                .set(static_cast<std::uint64_t>(c->stats.time_in_mpi));
            reg.counter(p + "mpi_calls").set(c->stats.mpi_calls);
            reg.counter(p + "protocol_errors").set(c->stats.protocol_errors);
            mpi_total += c->stats.time_in_mpi;
            calls_total += c->stats.mpi_calls;
            errors_total += c->stats.protocol_errors;
        }
        reg.counter("rt.total.time_in_mpi_ns")
            .set(static_cast<std::uint64_t>(mpi_total));
        reg.counter("rt.total.mpi_calls").set(calls_total);
        reg.counter("rt.total.protocol_errors").set(errors_total);
    });
    // Zero-copy datapath accounting: slab pools (aggregated by name, sorted
    // for deterministic output), the shared payload-buffer pool, and the
    // inline-callback heap-fallback count. The payload pool and the
    // fallback counter are process-global; reset them here so each job's
    // metrics are self-contained and identical across repeat runs in one
    // process (the slab pools are per-World already).
    net::payload_pool_reset();
    sim::smallfn_heap_fallbacks() = 0;
    obs_.metrics().add_publisher([](obs::Registry& reg) {
        for (const auto& s : sim::PoolRegistry::instance().snapshot()) {
            const std::string p = "mem.pool." + s.name + ".";
            reg.counter(p + "allocs").set(s.stats.allocs);
            reg.counter(p + "chunk_allocs").set(s.stats.chunk_allocs);
            reg.counter(p + "oversize").set(s.stats.oversize);
            reg.gauge(p + "live").set(static_cast<double>(s.stats.live));
            reg.gauge(p + "free")
                .set(static_cast<double>(s.stats.free_blocks));
        }
        const net::PayloadPoolStats& ps = net::payload_pool_stats();
        reg.counter("mem.payload.buffers_created").set(ps.buffers_created);
        reg.counter("mem.payload.acquires").set(ps.acquires);
        reg.counter("mem.payload.cow_copies").set(ps.cow_copies);
        reg.counter("mem.payload.bytes_copied").set(ps.bytes_copied);
        reg.counter("mem.payload.borrows").set(ps.borrows);
        reg.counter("mem.payload.detach_copies").set(ps.detach_copies);
        reg.gauge("mem.payload.live").set(static_cast<double>(ps.live));
        reg.gauge("mem.payload.free")
            .set(static_cast<double>(ps.free_buffers));
        reg.counter("mem.smallfn.heap_fallbacks")
            .set(sim::smallfn_heap_fallbacks());
    });
}

void World::run(std::function<void(Process&)> rank_main) {
    for (Rank r = 0; r < cfg_.ranks; ++r) {
        engine_.spawn("rank" + std::to_string(r),
                      [this, r, rank_main](sim::Process& sp) {
                          Process p(*this, sp, r);
                          rank_main(p);
                      });
    }
    engine_.run();
    // Job-end validations (GATS group pairing) need the whole run's view.
    if (checker_) checker_->finalize();
}

void World::set_rma_handler(Rank r, net::Fabric::Handler h) {
    ctx(r).rma_handler = std::move(h);
}

// ------------------------------------------------------------- dispatch

void World::handle_packet(Rank r, net::Packet&& p) {
    RankCtx& c = ctx(r);
    if (p.kind >= kRmaKindBase) {
        auto& h = c.rma_handler;
        if (!h) {
            // Arrived before/after the RMA engine's lifetime: unroutable.
            ++c.stats.protocol_errors;
            return;
        }
        h(std::move(p));
        return;
    }
    switch (p.kind) {
        case kEager: on_eager(c, std::move(p)); break;
        case kRts: on_rts(c, std::move(p)); break;
        case kCts: on_cts(c, std::move(p)); break;
        case kRndvData: on_rndv_data(c, std::move(p)); break;
        default: ++c.stats.protocol_errors; break;
    }
}

void World::on_link_down(Rank src, Rank dst) {
    // Sender side: rendezvous sends bound for the dead link will never see
    // their CTS answered with data.
    RankCtx& s = ctx(src);
    for (auto it = s.rndv_send.begin(); it != s.rndv_send.end();) {
        if (it->second.dst == dst) {
            it->second.req->fail(engine_, NBE_ERR_LINK_DOWN);
            it = s.rndv_send.erase(it);
        } else {
            ++it;
        }
    }
    // Receiver side: receives bound to (or only satisfiable by) the dead
    // sender will never complete. Wildcard receives stay posted — another
    // sender can still match them.
    RankCtx& d = ctx(dst);
    for (auto it = d.posted.begin(); it != d.posted.end();) {
        if ((*it)->src_filter == src) {
            (*it)->req->fail(engine_, NBE_ERR_LINK_DOWN);
            it = d.posted.erase(it);
        } else {
            ++it;
        }
    }
    for (auto it = d.rndv_recv.begin(); it != d.rndv_recv.end();) {
        if (it->second->rndv_src == src) {
            it->second->req->fail(engine_, NBE_ERR_LINK_DOWN);
            it = d.rndv_recv.erase(it);
        } else {
            ++it;
        }
    }
    for (auto& fn : link_down_subs_) fn(src, dst);
}

bool World::matches(const RecvOp& op, Rank src, int tag) noexcept {
    return (op.src_filter == kAnySource || op.src_filter == src) &&
           (op.tag_filter == kAnyTag || op.tag_filter == tag);
}

void World::copy_into(const RecvOp& op, const std::byte* data, std::size_t n) {
    const std::size_t take = std::min(n, op.cap);
    if (take > 0) std::memcpy(op.buf, data, take);
    if (op.got) *op.got = take;
}

// --------------------------------------------------------------- sending

Request World::isend(Rank src, const void* buf, std::size_t n, Rank dst,
                     int tag) {
    RankCtx& c = ctx(src);
    if (n < cfg_.eager_threshold) {
        net::Packet p;
        p.src = src;
        p.dst = dst;
        p.kind = kEager;
        p.header[0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
        p.header[2] = n;
        if (n > 0) p.payload = net::PayloadRef::copy_of(buf, n);
        fabric_.send(std::move(p));
        return Request(RequestState::completed());  // buffered at the source
    }
    // Rendezvous: RTS now, data after CTS.
    const std::uint64_t id = c.next_id++;
    SendOp op;
    op.data = net::PayloadRef::copy_of(buf, n);  // single staging copy
    op.dst = dst;
    op.req = std::make_shared<RequestState>();
    op.req->set_label_fn([dst, tag, n] {
        return "send(dst=" + std::to_string(dst) +
               ", tag=" + std::to_string(tag) + ", n=" + std::to_string(n) +
               ")";
    });
    Request out(op.req);
    c.rndv_send.emplace(id, std::move(op));

    net::Packet rts;
    rts.src = src;
    rts.dst = dst;
    rts.kind = kRts;
    rts.header[0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
    rts.header[1] = id;
    rts.header[2] = n;
    fabric_.send(std::move(rts));
    return out;
}

Request World::irecv(Rank dst, void* buf, std::size_t cap, Rank src, int tag,
                     std::size_t* got) {
    RankCtx& c = ctx(dst);
    auto op = std::make_shared<RecvOp>();
    op->src_filter = src;
    op->tag_filter = tag;
    op->buf = static_cast<std::byte*>(buf);
    op->cap = cap;
    op->got = got;
    op->id = c.next_id++;
    op->req = std::make_shared<RequestState>();
    op->req->set_label_fn([src, tag] {
        return "recv(src=" +
               (src == kAnySource ? "any" : std::to_string(src)) + ", tag=" +
               (tag == kAnyTag ? "any" : std::to_string(tag)) + ")";
    });

    // Try the unexpected queue first (oldest match wins).
    for (auto it = c.unexpected.begin(); it != c.unexpected.end(); ++it) {
        if (!matches(*op, it->src, it->tag)) continue;
        if (it->rndv) {
            op->rndv_src = it->src;
            c.rndv_recv.emplace(op->id, op);
            send_cts(c, it->src, it->send_id, op->id);
        } else {
            copy_into(*op, it->data.data(), it->data.size());
            op->req->complete(engine_);
        }
        c.unexpected.erase(it);
        return Request(op->req);
    }
    c.posted.push_back(op);
    return Request(op->req);
}

void World::send_cts(RankCtx& c, Rank to, std::uint64_t send_id,
                     std::uint64_t recv_id) {
    net::Packet cts;
    cts.src = c.rank;
    cts.dst = to;
    cts.kind = kCts;
    cts.header[1] = send_id;
    cts.header[3] = recv_id;
    fabric_.send(std::move(cts));
}

// -------------------------------------------------------------- arrivals

void World::on_eager(RankCtx& c, net::Packet&& p) {
    const int tag = static_cast<int>(static_cast<std::int64_t>(p.header[0]));
    for (auto it = c.posted.begin(); it != c.posted.end(); ++it) {
        if (matches(**it, p.src, tag)) {
            auto op = *it;
            c.posted.erase(it);
            copy_into(*op, p.payload.data(), p.payload.size());
            op->req->complete(engine_);
            return;
        }
    }
    Unexpected u;
    u.src = p.src;
    u.tag = tag;
    u.size = p.payload.size();
    u.data = std::move(p.payload);
    c.unexpected.push_back(std::move(u));
}

void World::on_rts(RankCtx& c, net::Packet&& p) {
    const int tag = static_cast<int>(static_cast<std::int64_t>(p.header[0]));
    const std::uint64_t send_id = p.header[1];
    for (auto it = c.posted.begin(); it != c.posted.end(); ++it) {
        if (matches(**it, p.src, tag)) {
            auto op = *it;
            c.posted.erase(it);
            op->rndv_src = p.src;
            c.rndv_recv.emplace(op->id, op);
            send_cts(c, p.src, send_id, op->id);
            return;
        }
    }
    Unexpected u;
    u.src = p.src;
    u.tag = tag;
    u.rndv = true;
    u.send_id = send_id;
    u.size = p.header[2];
    c.unexpected.push_back(std::move(u));
}

void World::on_cts(RankCtx& c, net::Packet&& p) {
    const std::uint64_t send_id = p.header[1];
    auto it = c.rndv_send.find(send_id);
    if (it == c.rndv_send.end()) {
        // Send already failed (link down) or duplicate CTS: drop.
        ++c.stats.protocol_errors;
        return;
    }
    SendOp op = std::move(it->second);
    c.rndv_send.erase(it);

    const auto pin_delay = fabric_.pin(
        c.rank, send_id ^ 0x5244564eULL /*"RDVN"*/, op.data.size());
    net::Packet data;
    data.src = c.rank;
    data.dst = op.dst;
    data.kind = kRndvData;
    data.header[3] = p.header[3];  // recv_id
    data.payload = std::move(op.data);
    auto req = op.req;
    data.on_acked = [this, req](sim::Time) { req->complete(engine_); };
    data.on_error = [this, req](Status s) { req->fail(engine_, s); };
    fabric_.send(std::move(data), pin_delay);
}

void World::on_rndv_data(RankCtx& c, net::Packet&& p) {
    const std::uint64_t recv_id = p.header[3];
    auto it = c.rndv_recv.find(recv_id);
    if (it == c.rndv_recv.end()) {
        // Receive already failed (link down) or duplicate data: drop.
        ++c.stats.protocol_errors;
        return;
    }
    auto op = it->second;
    c.rndv_recv.erase(it);
    copy_into(*op, p.payload.data(), p.payload.size());
    op->req->complete(engine_);
}

// -------------------------------------------------------------- Process

void Process::charge_call() {
    sp_.advance(world_.config().call_overhead);
}

void Process::compute(sim::Duration d) {
    NBE_TRACE_SPAN(&world_.tracer(), rank_, "app", "compute");
    sp_.advance(d);
}

Request Process::isend(const void* buf, std::size_t n, Rank dst, int tag) {
    MpiSection sec(*this);
    charge_call();
    return world_.isend(rank_, buf, n, dst, tag);
}

Request Process::irecv(void* buf, std::size_t cap, Rank src, int tag,
                       std::size_t* got) {
    MpiSection sec(*this);
    charge_call();
    return world_.irecv(rank_, buf, cap, src, tag, got);
}

void Process::send(const void* buf, std::size_t n, Rank dst, int tag) {
    MpiSection sec(*this);
    NBE_TRACE_SPAN(&world_.tracer(), rank_, "rt", "send");
    charge_call();
    Request r = world_.isend(rank_, buf, n, dst, tag);
    r.wait(sp_);
}

void Process::recv(void* buf, std::size_t cap, Rank src, int tag,
                   std::size_t* got) {
    MpiSection sec(*this);
    NBE_TRACE_SPAN(&world_.tracer(), rank_, "rt", "recv");
    charge_call();
    Request r = world_.irecv(rank_, buf, cap, src, tag, got);
    r.wait(sp_);
}

void Process::barrier() {
    MpiSection sec(*this);
    NBE_TRACE_SPAN(&world_.tracer(), rank_, "rt", "barrier");
    charge_call();
    const int n = size();
    if (n == 1) return;
    auto& gen = world_.ctx(rank_).barrier_gen;
    // Tag space reserved for internal collectives; generation wraps far
    // beyond any plausible number of concurrently pending barriers.
    const int base = (1 << 24) + static_cast<int>(gen % 4096) * 64;
    ++gen;
    int round = 0;
    for (int k = 1; k < n; k <<= 1, ++round) {
        const int tag = base + round;
        const Rank to = static_cast<Rank>((rank_ + k) % n);
        const Rank from = static_cast<Rank>(((rank_ - k) % n + n) % n);
        char dummy = 0;
        Request rr = world_.irecv(rank_, &dummy, 1, from, tag);
        world_.isend(rank_, &dummy, 1, to, tag);
        rr.wait(sp_);
    }
}

}  // namespace nbe::rt
