// Simulated cluster fabric: internode links with NIC TX serialization and
// flow-control credits, intranode shared-memory channels, a per-rank
// memory-registration cache, and a link-level reliable-delivery sublayer
// that is the only way to inject faults.
//
// Timing model per packet (constants from net/config.hpp):
//   ready        = now + sw_overhead + extra_delay
//   tx_start     = max(ready, tx_free[src])
//   tx_free[src] = tx_start + wire_bytes / bandwidth
//   delivered_at = tx_free[src] + latency
//   acked_at     = delivered_at + latency     (initiator-side completion)
//
// Internode packets additionally hold one of the source NIC's tx_credits
// from transmission until acked_at. A send that finds every credit out
// waits for the oldest to return: its ready time becomes
// max(now, oldest acked_at) + sw_overhead + extra_delay. This is the
// flow-control behaviour the paper blames for the 512-process flattening in
// Figure 12.
//
// Lossless path (fault.enabled off): every time above is known at send, so
// the fabric computes it there. Credits are a ring of each source's last
// tx_credits return times. Each source has two wire channels, NIC and shm,
// and each is a FIFO of timed 40-byte frames, stored in fixed-size chunks
// that every channel takes from, and gives back to, one free list. A
// compact packet (no payload, no completion, header words 2..5 zero and
// word 0 within 32 bits) lives in its frame; any other packet is boxed
// whole, with its completion, in a pooled block the frame points at. The
// Packet is rebuilt at delivery.
// delivered_at strictly increases along a channel, so FIFO order is
// delivery order. Only a channel's head sits in the event calendar: it
// enters at send when the channel is idle, otherwise when the frame ahead
// of it is delivered. That costs one event per packet, plus an ack event
// for a packet whose completion has an on_acked.
//
// Reliability sublayer (cfg.fault.enabled): every packet carries a
// per-(src,dst) sequence number; the receiver delivers in order (buffering
// out-of-order arrivals), discards duplicates and corrupted packets, and
// returns cumulative ACKs. The sender retransmits on timeout with
// exponential backoff; exhausting the retry budget declares the directed
// link failed: every pending packet completes with on_error
// (NBE_ERR_TIMEOUT for the packet that hit the budget, NBE_ERR_LINK_DOWN
// for collateral), future sends fail immediately, and the registered
// link-down handler fires so upper layers can abort epochs targeting the
// dead peer. The one switch turns on faults and the sublayer together, so
// every injected fault goes through it. With zero fault probabilities and
// no outages the sublayer reproduces the lossless timing model exactly,
// through its own stall queue and credit counter, so it serves as the
// lossless path's timing oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/config.hpp"
#include "net/packet.hpp"
#include "obs/record.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "sim/rng.hpp"

namespace nbe::obs {
class Obs;
class Tracer;
}  // namespace nbe::obs

namespace nbe::net {

class Fabric {
public:
    using Handler = std::function<void(Packet&&)>;
    using LinkDownHandler = std::function<void(Rank src, Rank dst)>;

    Fabric(sim::Engine& engine, int nranks, FabricConfig cfg);
    ~Fabric();

    Fabric(const Fabric&) = delete;
    Fabric& operator=(const Fabric&) = delete;

    /// Registers the delivery handler for a rank. Must be set before any
    /// packet addressed to that rank is delivered.
    void set_handler(Rank r, Handler h);

    /// Registers the handler invoked (once per directed link, from the
    /// event loop) when a link is declared failed.
    void set_link_down_handler(LinkDownHandler h) {
        link_down_handler_ = std::move(h);
    }

    /// Sends a packet. `extra_src_delay` is charged at the source before
    /// transmission (e.g., registration-pin cost). Self-sends (src == dst)
    /// are explicitly supported loopback over the intranode channel.
    /// `done` is the packet's source-side completion; it is pooled only
    /// when one of its callbacks is set.
    void send(Packet&& p, sim::Duration extra_src_delay = 0,
              Completion&& done = {});

    [[nodiscard]] int nranks() const noexcept { return nranks_; }
    [[nodiscard]] int node_of(Rank r) const noexcept {
        return r / cfg_.ranks_per_node;
    }
    [[nodiscard]] bool same_node(Rank a, Rank b) const noexcept {
        return node_of(a) == node_of(b);
    }
    [[nodiscard]] const FabricConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

    /// Registration-cache lookup for a source buffer. Returns the pin delay
    /// to charge (0 on hit or for small buffers) and updates the LRU cache.
    sim::Duration pin(Rank r, std::uint64_t key, std::size_t bytes);

    /// Drops `key` from rank `r`'s registration cache, if present. Called
    /// when the memory behind a registration may be freed or reused while
    /// the cache would otherwise keep the stale entry warm (epoch abort
    /// hands origin buffers back to the application): a later pin of a new
    /// buffer at the same address must miss, not hit the dead registration.
    void unpin(Rank r, std::uint64_t key);

    /// Internode TX credits of rank `r` not out at the current time.
    [[nodiscard]] int credits(Rank r) const;

    /// True once the directed link src->dst has been declared failed.
    [[nodiscard]] bool link_failed(Rank src, Rank dst) const;

    /// Declares the directed link failed immediately (test hook; production
    /// failures come from retry-budget exhaustion).
    void fail_link_now(Rank src, Rank dst);

    struct Stats {
        std::uint64_t packets_sent = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t credit_stalls = 0;  ///< packets that waited for a credit
        std::uint64_t pin_hits = 0;
        std::uint64_t pin_misses = 0;
        // Reliability / fault-injection counters.
        std::uint64_t drops_injected = 0;    ///< lost transmissions (incl. ACKs, outages)
        std::uint64_t retransmits = 0;       ///< timeout-driven resends
        std::uint64_t dup_delivered = 0;     ///< duplicate arrivals discarded at rx
        std::uint64_t corrupt_detected = 0;  ///< checksum failures discarded at rx
        std::uint64_t links_failed = 0;      ///< directed links declared dead
    };
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Attaches the job's observability context: packet tx/rx, credit
    /// stalls, retransmits and link failures become trace events, and the
    /// fabric counters are pull-published into the metrics registry. Null
    /// (the default) disables all hooks.
    void set_obs(obs::Obs* o);

    /// Structured diagnostic state: one "fabric.stats" record, one
    /// "fabric.rank" record per rank with credits out or packets queued
    /// (lossless wire frames per channel, reliable credit stalls), one
    /// "fabric.link" record per non-idle reliable link.
    [[nodiscard]] std::vector<obs::Record> diagnostic_records() const;

    /// Human-readable rendering of diagnostic_records(); registered as an
    /// engine deadlock diagnostic.
    [[nodiscard]] std::string diagnostic_dump() const;

    /// Lossless wire storage: frame chunks made so far, and how many of
    /// them sit on the free list (the rest hold queued frames).
    struct ChunkCounts {
        std::size_t made = 0;
        std::size_t free = 0;
    };
    [[nodiscard]] ChunkCounts wire_chunks() const noexcept;

private:
    static std::size_t asz(Rank r) { return static_cast<std::size_t>(r); }
    [[nodiscard]] std::uint64_t link_key(Rank src, Rank dst) const noexcept {
        return static_cast<std::uint64_t>(src) *
                   static_cast<std::uint64_t>(nranks_) +
               static_cast<std::uint64_t>(dst);
    }

    /// Pooled source-side completion; null when the sender set none. In
    /// an event capture it costs 24 bytes, inline beside `this` and a
    /// Status or a rank. A queued lossless frame's box holds the bare
    /// record (see Boxed) and the fabric's destructor releases what is
    /// left.
    using CompletionPtr = sim::PoolPtr<Completion>;

    /// One packet awaiting cumulative acknowledgement (reliable mode).
    struct InFlight {
        Packet pkt;          ///< authoritative copy; wire sends use copies
        CompletionPtr done;
        sim::Duration extra_delay = 0;  ///< charged on the first attempt only
        int retries = 0;
        std::uint64_t timer_gen = 0;  ///< invalidates stale timeout events
        bool internode = false;
        bool credit_held = false;
    };

    /// Directed (src,dst) link state; created on first use.
    struct LinkState {
        // Sender side (lives at src).
        std::uint64_t next_tx = 1;
        std::uint64_t acked = 0;  ///< highest cumulative ack received
        /// Sequences acked+1 .. next_tx-1, in order, until the link fails.
        std::deque<InFlight> unacked;
        // Receiver side (lives at dst).
        std::uint64_t rx_next = 1;  ///< next in-order sequence expected
        std::map<std::uint64_t, Packet> rx_ooo;  ///< arrivals past rx_next
        bool failed = false;

        /// The unacked entry for `seq`, or null once it is acked.
        [[nodiscard]] InFlight* in_flight(std::uint64_t seq) noexcept {
            return seq > acked && seq - acked <= unacked.size()
                       ? &unacked[seq - acked - 1]
                       : nullptr;
        }
    };

    /// A reliable-path packet waiting for a credit.
    struct Stalled {
        std::uint64_t link_key = 0;  ///< (src,dst) key
        std::uint64_t seq = 0;       ///< sequence number on that link
    };

    /// A lossless-path packet that does not fit a frame, with its
    /// completion (a record from done_pool_, or null); one wire_pool_
    /// block, returned at delivery.
    struct Boxed {
        Packet pkt;
        Completion* done = nullptr;
    };

    /// One frame on a lossless wire channel: the time it reaches the
    /// destination and either a compact packet's fields or `full`, its
    /// box. A fence puts nranks^2 of these on the wire at once.
    struct Frame {
        sim::Time delivered_at;
        Boxed* full;  ///< null for a compact packet
        std::uint64_t header1;
        Rank src;
        Rank dst;
        std::uint32_t kind;
        std::uint32_t header0;
    };
    static_assert(sizeof(void*) != 8 || sizeof(Frame) <= 40, "Frame grew");

    /// A fixed run of frame slots. Slots hold live frames only between a
    /// channel's push and pop; a chunk is either on the free list or part
    /// of exactly one channel.
    struct FrameChunk {
        static constexpr std::uint32_t kFrames = 16;
        FrameChunk* next = nullptr;
        Frame slots[kFrames];
    };

    /// A lossless wire channel: `count` frames, oldest first, from slot
    /// `first` of `head` through the chunks linked up to `tail`. Every
    /// chunk but the head and tail is full. An empty channel holds none.
    struct Channel {
        FrameChunk* head = nullptr;
        FrameChunk* tail = nullptr;
        std::uint32_t first = 0;
        std::uint32_t count = 0;
    };

    /// Lossless wire channels: two per source, NIC then shm.
    [[nodiscard]] static std::size_t channel(Rank src, bool internode) {
        return 2 * asz(src) + (internode ? 0 : 1);
    }

    /// A reliable-path transmission: the packet with its link sequence
    /// number and fault injection's corruption mark, which only the
    /// reliable receive path reads.
    struct Wire {
        Packet pkt;
        std::uint64_t seq = 0;
        bool corrupt = false;
    };

    /// Pooled reliable-path wire copy. Sits in a SmallFn event capture
    /// alongside `this` (32 bytes total — inline, no allocation); the
    /// embedded pool reference keeps the block valid even if the Fabric
    /// dies while the event is still queued.
    using WirePtr = sim::PoolPtr<Wire>;

    /// Boxes a completion in a done_pool_ record, or returns null when it
    /// has no callback.
    [[nodiscard]] Completion* box(Completion&& done);
    /// Takes ownership of a boxed completion (null stays null).
    [[nodiscard]] CompletionPtr own(Completion* done) const;

    // Lossless path.
    void transmit(Packet&& p, Completion* done, sim::Duration extra_src_delay);
    void on_delivered(std::size_t ch);
    /// Packs `p` into a frame, boxing it when it is not compact.
    [[nodiscard]] Frame pack(Packet&& p, Completion* done, sim::Time at);
    /// Rebuilds the frame's packet and hands over its completion; a box
    /// goes back to wire_pool_.
    [[nodiscard]] Packet unpack(const Frame& f, Completion*& done);
    void push_frame(Channel& q, const Frame& f);
    [[nodiscard]] Frame pop_frame(Channel& q);
    [[nodiscard]] FrameChunk* take_chunk();
    void give_chunk(FrameChunk* c) noexcept;

    // Reliable path.
    void transmit_rel(LinkState& l, std::uint64_t key, std::uint64_t seq);
    void on_wire_rel(WirePtr wire);
    void deliver_rel(std::uint64_t key, std::uint64_t seq, bool corrupted,
                     Packet&& wire);
    void deliver_to_handler(Packet&& p);
    void send_ack(std::uint64_t key, const LinkState& l);
    void on_ack(std::uint64_t key, std::uint64_t upto);
    void on_timeout(std::uint64_t key, std::uint64_t seq, std::uint64_t gen);
    void fail_link(std::uint64_t key, LinkState& l, std::uint64_t trigger_seq);
    /// Schedules `done`'s on_error, if it has one, at the current time.
    void post_error(CompletionPtr done, Status s);

    void return_credit(Rank src);
    [[nodiscard]] std::size_t wire_bytes(const Packet& p) const noexcept;
    [[nodiscard]] sim::Duration draw_jitter();
    /// Non-null only while tracing is enabled for this job.
    [[nodiscard]] obs::Tracer* tracer() const noexcept;

    sim::Engine& engine_;
    int nranks_;
    FabricConfig cfg_;
    bool reliable_;
    sim::Xoshiro256 fault_rng_;
    std::vector<Handler> handlers_;
    LinkDownHandler link_down_handler_;
    std::vector<sim::Time> nic_tx_free_;  // internode TX availability
    std::vector<sim::Time> shm_tx_free_;  // intranode copy availability
    // Lossless path: per source, the last tx_credits credit return times
    // (a ring starting at credit_head_), and the wire channels.
    std::vector<sim::Time> credit_ret_;
    std::vector<std::size_t> credit_head_;
    std::vector<Channel> wire_;
    // Every frame chunk made, and the free ones, linked through `next`.
    std::vector<std::unique_ptr<FrameChunk>> chunks_;
    FrameChunk* free_chunks_ = nullptr;
    std::size_t n_free_chunks_ = 0;
    // Reliable path: free credits and credit-stalled packets per source.
    std::vector<int> credits_;
    std::vector<std::deque<Stalled>> stalled_;
    std::unordered_map<std::uint64_t, LinkState> links_;
    std::shared_ptr<sim::BlockPool> wire_pool_;  ///< Wire copies or Boxed
    std::shared_ptr<sim::BlockPool> done_pool_;  ///< Completion records

    struct RegCache {
        std::list<std::uint64_t> lru;  // front = most recent
        std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map;
    };
    std::vector<RegCache> reg_;

    Stats stats_;
    std::uint64_t diag_id_ = 0;
    obs::Obs* obs_ = nullptr;
};

}  // namespace nbe::net
