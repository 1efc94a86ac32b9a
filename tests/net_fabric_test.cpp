// Unit tests for the fabric model: timing (latency, bandwidth, NIC TX
// serialization), flow-control credits, topology, the registration cache,
// the lossless wire's chunked frame storage, payload size limits and the
// epochs' peer lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch.hpp"
#include "net/fabric.hpp"
#include "net/payload.hpp"
#include "sim/pool.hpp"

using namespace nbe;
using namespace nbe::net;

namespace {

FabricConfig internode_cfg() {
    FabricConfig cfg;
    cfg.ranks_per_node = 1;
    return cfg;
}

Packet control(Rank src, Rank dst) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.kind = 1;
    return p;
}

}  // namespace

TEST(Fabric, Topology) {
    sim::Engine eng;
    FabricConfig cfg;
    cfg.ranks_per_node = 4;
    Fabric f(eng, 16, cfg);
    EXPECT_EQ(f.node_of(0), 0);
    EXPECT_EQ(f.node_of(3), 0);
    EXPECT_EQ(f.node_of(4), 1);
    EXPECT_TRUE(f.same_node(0, 3));
    EXPECT_FALSE(f.same_node(3, 4));
    EXPECT_EQ(f.nranks(), 16);
}

TEST(Fabric, RejectsBadConfig) {
    sim::Engine eng;
    FabricConfig cfg;
    EXPECT_THROW(Fabric(eng, 0, cfg), std::invalid_argument);
    cfg.ranks_per_node = 0;
    EXPECT_THROW(Fabric(eng, 2, cfg), std::invalid_argument);
    cfg.ranks_per_node = 1;
    cfg.tx_credits = 0;
    EXPECT_THROW(Fabric(eng, 2, cfg), std::invalid_argument);
}

TEST(Fabric, ControlPacketLatency) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    sim::Time delivered = -1;
    f.set_handler(1, [&](Packet&&) { delivered = eng.now(); });
    f.set_handler(0, [](Packet&&) {});
    f.send(control(0, 1));
    eng.run();
    const auto expect = kSwOverhead +
                        sim::serialization_delay(kControlBytes,
                                                 kInterBandwidth) +
                        kInterLatency;
    EXPECT_EQ(delivered, expect);
}

TEST(Fabric, PayloadBandwidthDominatesLargeTransfers) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    sim::Time delivered = -1;
    f.set_handler(1, [&](Packet&&) { delivered = eng.now(); });
    Packet p = control(0, 1);
    p.payload.resize(1 << 20);
    f.send(std::move(p));
    eng.run();
    EXPECT_GT(delivered, sim::microseconds(330));
    EXPECT_LT(delivered, sim::microseconds(350));
}

TEST(Fabric, IntranodeIsFasterThanInternode) {
    auto deliver_time = [](int ranks_per_node) {
        sim::Engine eng;
        FabricConfig cfg;
        cfg.ranks_per_node = ranks_per_node;
        Fabric f(eng, 2, cfg);
        sim::Time t = -1;
        f.set_handler(1, [&](Packet&&) { t = eng.now(); });
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.payload.resize(256 << 10);
        f.send(std::move(p));
        eng.run();
        return t;
    };
    EXPECT_LT(deliver_time(2), deliver_time(1));
}

TEST(Fabric, NicTxSerializesSameSourcePackets) {
    sim::Engine eng;
    Fabric f(eng, 3, internode_cfg());
    std::vector<sim::Time> deliveries;
    for (Rank r = 1; r < 3; ++r) {
        f.set_handler(r, [&](Packet&&) { deliveries.push_back(eng.now()); });
    }
    // Two 1 MB packets from rank 0 to different destinations: the second
    // must wait for the first to clear the NIC.
    for (Rank dst = 1; dst < 3; ++dst) {
        Packet p = control(0, dst);
        p.payload.resize(1 << 20);
        f.send(std::move(p));
    }
    eng.run();
    ASSERT_EQ(deliveries.size(), 2u);
    const auto gap = deliveries[1] - deliveries[0];
    EXPECT_GT(gap, sim::microseconds(330));  // one full serialization
}

TEST(Fabric, FifoPerSourceDestinationPair) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    std::vector<std::uint64_t> order;
    f.set_handler(1, [&](Packet&& p) { order.push_back(p.header[0]); });
    for (std::uint64_t i = 0; i < 8; ++i) {
        Packet p = control(0, 1);
        p.header[0] = i;
        p.payload.resize((i % 2) ? 100000 : 10);  // mixed sizes
        f.send(std::move(p));
    }
    eng.run();
    ASSERT_EQ(order.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Fabric, OnAckedFiresAfterDelivery) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    sim::Time delivered = -1;
    sim::Time acked = -1;
    f.set_handler(1, [&](Packet&&) { delivered = eng.now(); });
    Packet p = control(0, 1);
    f.send(std::move(p), 0, {.on_acked = [&](sim::Time t) { acked = t; }});
    eng.run();
    EXPECT_EQ(acked, delivered + kInterLatency);
}

TEST(Fabric, CreditsStallAndRecover) {
    sim::Engine eng;
    FabricConfig cfg = internode_cfg();
    cfg.tx_credits = 2;
    Fabric f(eng, 2, cfg);
    int received = 0;
    f.set_handler(1, [&](Packet&&) { ++received; });
    for (int i = 0; i < 10; ++i) f.send(control(0, 1));
    // Two in flight, eight stalled.
    EXPECT_EQ(f.credits(0), 0);
    EXPECT_EQ(f.stats().credit_stalls, 8u);
    eng.run();
    EXPECT_EQ(received, 10);       // everything eventually drains
    // The run ends at the last delivery; its credit returns one latency
    // later, with no event of its own.
    EXPECT_EQ(f.credits(0), 0);
    eng.schedule_at(eng.now() + kInterLatency, [] {});
    eng.run();
    EXPECT_EQ(f.credits(0), 2);    // credits fully restored
}

TEST(Fabric, RankRecordShowsCreditsAndQueuedFramesMidBurst) {
    sim::Engine eng;
    FabricConfig cfg;
    cfg.ranks_per_node = 2;
    cfg.tx_credits = 2;
    Fabric f(eng, 4, cfg);
    for (Rank r = 0; r < 4; ++r) f.set_handler(r, [](Packet&&) {});
    auto rank_record = [&](Rank r) -> std::optional<obs::Record> {
        for (auto& rec : f.diagnostic_records()) {
            const std::string* v = rec.find("rank");
            if (rec.type() == "fabric.rank" && v && *v == std::to_string(r)) {
                return rec;
            }
        }
        return std::nullopt;
    };
    // Five packets to another node, three to the node-local peer.
    for (int i = 0; i < 5; ++i) f.send(control(0, 2));
    for (int i = 0; i < 3; ++i) f.send(control(0, 1));
    const auto rec = rank_record(0);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(*rec->find("credits"), "0/2");
    EXPECT_EQ(*rec->find("nic_frames"), "5");
    EXPECT_EQ(*rec->find("shm_frames"), "3");
    EXPECT_FALSE(rank_record(1).has_value());  // idle ranks are left out
    EXPECT_NE(f.diagnostic_dump().find("credits=0/2"), std::string::npos)
        << f.diagnostic_dump();

    // Mid-burst: the shm frames and the first NIC frame are delivered.
    eng.schedule_at(kSwOverhead +
                        sim::serialization_delay(kControlBytes,
                                                 kInterBandwidth) +
                        kInterLatency,
                    [&] {
                        const auto mid = rank_record(0);
                        ASSERT_TRUE(mid.has_value());
                        EXPECT_EQ(*mid->find("credits"), "0/2");
                        EXPECT_EQ(*mid->find("shm_frames"), "0");
                        EXPECT_EQ(*mid->find("nic_frames"), "4");
                    });
    eng.run();
    eng.schedule_at(eng.now() + kInterLatency, [] {});
    eng.run();
    EXPECT_FALSE(rank_record(0).has_value());  // drained, every credit back
}

TEST(Fabric, IntranodePacketsDoNotConsumeCredits) {
    sim::Engine eng;
    FabricConfig cfg;
    cfg.ranks_per_node = 2;
    cfg.tx_credits = 1;
    Fabric f(eng, 2, cfg);
    int received = 0;
    f.set_handler(1, [&](Packet&&) { ++received; });
    for (int i = 0; i < 5; ++i) f.send(control(0, 1));
    EXPECT_EQ(f.stats().credit_stalls, 0u);
    eng.run();
    EXPECT_EQ(received, 5);
}

TEST(Fabric, StalledPacketsKeepFifoOrder) {
    sim::Engine eng;
    FabricConfig cfg = internode_cfg();
    cfg.tx_credits = 1;
    Fabric f(eng, 2, cfg);
    std::vector<std::uint64_t> order;
    f.set_handler(1, [&](Packet&& p) { order.push_back(p.header[0]); });
    for (std::uint64_t i = 0; i < 6; ++i) {
        Packet p = control(0, 1);
        p.header[0] = i;
        f.send(std::move(p));
    }
    eng.run();
    for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

TEST(Fabric, RegistrationCacheHitsAndMisses) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    // Small buffers never pin.
    EXPECT_EQ(f.pin(0, 1, 64), 0);
    EXPECT_EQ(f.stats().pin_misses, 0u);
    // First large use: miss.
    EXPECT_EQ(f.pin(0, 1, 1 << 20), kPinCost);
    // Second use of the same buffer: hit.
    EXPECT_EQ(f.pin(0, 1, 1 << 20), 0);
    EXPECT_EQ(f.stats().pin_hits, 1u);
    // Fill the cache with keys 1..capacity, then touch key 1 so key 2 is
    // the least recently used.
    for (std::uint64_t k = 2; k <= kRegCacheCapacity; ++k) {
        EXPECT_EQ(f.pin(0, k, 1 << 20), kPinCost);
    }
    EXPECT_EQ(f.pin(0, 1, 1 << 20), 0);
    // One key past capacity evicts the LRU entry, key 2, and keeps key 1.
    EXPECT_EQ(f.pin(0, kRegCacheCapacity + 1, 1 << 20), kPinCost);
    EXPECT_EQ(f.pin(0, 1, 1 << 20), 0);
    EXPECT_EQ(f.pin(0, 2, 1 << 20), kPinCost);  // miss again
    EXPECT_EQ(f.stats().pin_misses, kRegCacheCapacity + 2);
    EXPECT_EQ(f.stats().pin_hits, 3u);
}

TEST(Fabric, RegistrationCacheIsPerRank) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    EXPECT_GT(f.pin(0, 7, 1 << 20), 0);
    EXPECT_GT(f.pin(1, 7, 1 << 20), 0);  // other rank: its own miss
}

TEST(Fabric, OutOfRangeRanksThrow) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    EXPECT_THROW(f.send(control(0, 2)), std::out_of_range);
    EXPECT_THROW(f.send(control(-1, 1)), std::out_of_range);
    EXPECT_THROW((void)f.credits(2), std::out_of_range);
    EXPECT_THROW((void)f.credits(-1), std::out_of_range);
}

TEST(Fabric, MissingHandlerIsAnError) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    f.send(control(0, 1));  // no handler registered for rank 1
    EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Fabric, StatsCountPacketsAndBytes) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    f.set_handler(1, [](Packet&&) {});
    Packet p = control(0, 1);
    p.payload.resize(1000);
    f.send(std::move(p));
    f.send(control(0, 1));
    eng.run();
    EXPECT_EQ(f.stats().packets_sent, 2u);
    EXPECT_EQ(f.stats().bytes_sent,
              1000 + kHeaderBytes + kControlBytes);
}

TEST(Fabric, NegativeDestinationThrows) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    EXPECT_THROW(f.send(control(0, -1)), std::out_of_range);
    EXPECT_THROW(f.send(control(-3, -1)), std::out_of_range);
}

TEST(Fabric, SelfSendIsLoopback) {
    sim::Engine eng;
    Fabric f(eng, 2, internode_cfg());
    int got = 0;
    sim::Time acked = -1;
    f.set_handler(0, [&](Packet&& p) {
        EXPECT_EQ(p.src, 0);
        EXPECT_EQ(p.dst, 0);
        ++got;
    });
    Packet p = control(0, 0);
    f.send(std::move(p), 0, {.on_acked = [&](sim::Time t) { acked = t; }});
    eng.run();
    EXPECT_EQ(got, 1);
    EXPECT_GT(acked, 0);
    // Loopback rides the intranode channel: no NIC credit consumed.
    EXPECT_EQ(f.credits(0), f.config().tx_credits);
}

// -------------------------------------------------- reliable-delivery layer

namespace {

/// The reliable sublayer with no fault drawn: `fault.enabled` with zero
/// probabilities and no outages.
FabricConfig reliable_cfg() {
    FabricConfig cfg = internode_cfg();
    cfg.fault.enabled = true;
    return cfg;
}

/// A fault-free reliable run: nothing dropped, resent, duplicated or
/// corrupted, so it is the lossless path's timing oracle.
void expect_fault_free(const Fabric& f) {
    EXPECT_EQ(f.stats().drops_injected, 0u);
    EXPECT_EQ(f.stats().retransmits, 0u);
    EXPECT_EQ(f.stats().dup_delivered, 0u);
    EXPECT_EQ(f.stats().corrupt_detected, 0u);
}

}  // namespace

TEST(FabricReliability, FaultFreeTimingMatchesLosslessPath) {
    // With no fault drawn, the reliable sublayer moves every packet through its
    // stall queue and credit counter; the lossless path must reproduce its
    // timing exactly. A credit-starved burst from rank 0 (two credits,
    // three internode destinations and one intranode peer), mixed control
    // and 16/64 KiB payloads with registration pins, staggered by engine
    // events, plus replies that the intranode peer sends from its handler.
    // Every other burst first pins a full cache of fresh buffers, so the
    // packets' five reused buffers see both hits and post-eviction misses.
    constexpr int kPackets = 48;
    auto timings = [](bool reliable) {
        sim::Engine eng;
        FabricConfig cfg;
        cfg.ranks_per_node = 2;  // nodes {0,1} {2,3} {4,5} {6,7}
        cfg.tx_credits = 2;
        cfg.fault.enabled = reliable;
        Fabric f(eng, 8, cfg);
        // Packet id -> (delivered_at, acked_at); -1 marks no ack callback.
        std::map<std::uint64_t, std::pair<sim::Time, sim::Time>> t;
        auto on_rx = [&](Packet&& p) {
            t.try_emplace(p.header[0], -1, -1).first->second.first = eng.now();
            if (p.dst == 1 && p.header[0] < kPackets) {
                // The intranode peer answers across the fabric.
                Packet r = control(1, 3 + static_cast<Rank>(p.header[0] % 4));
                r.header[0] = p.header[0] + kPackets;
                f.send(std::move(r));
            }
        };
        for (Rank r = 0; r < 8; ++r) f.set_handler(r, on_rx);
        const Rank dsts[] = {2, 4, 1, 6, 2, 7, 4};
        auto send_one = [&](std::uint64_t id) {
            Packet p = control(0, dsts[id % 7]);
            p.header[0] = id;
            sim::Duration pin = 0;
            if (id % 3 == 1) p.payload.resize(16 << 10);
            if (id % 3 == 2) p.payload.resize(64 << 10);
            if (!p.payload.empty()) {
                pin = f.pin(0, id % 5, p.payload.size());
            }
            Completion c;
            if (id % 2 == 0) {
                c.on_acked = [&t, id](sim::Time at) { t.at(id).second = at; };
            }
            f.send(std::move(p), pin, std::move(c));
        };
        // Bursts at staggered times: some land while credits are out,
        // some after the NIC has drained.
        const sim::Time at[] = {0, sim::nanoseconds(700), sim::microseconds(3),
                                sim::microseconds(21), sim::microseconds(1000),
                                sim::microseconds(1001)};
        std::uint64_t next = 0;
        for (std::size_t b = 0; b < std::size(at); ++b) {
            const std::uint64_t n = b + 1 == std::size(at)
                                        ? kPackets - next
                                        : (b % 2 == 0 ? 9 : 6);
            const std::uint64_t first = next;
            next += n;
            eng.schedule_at(at[b], [&f, &send_one, b, first, n] {
                if (b % 2 == 1) {
                    for (std::uint64_t k = 0; k < kRegCacheCapacity; ++k) {
                        (void)f.pin(0, 100 * (b + 1) + k, kPinThreshold);
                    }
                }
                for (std::uint64_t i = first; i < first + n; ++i) send_one(i);
            });
        }
        eng.run();
        EXPECT_EQ(next, static_cast<std::uint64_t>(kPackets));
        EXPECT_GT(f.stats().pin_hits, 0u);
        EXPECT_GT(f.stats().pin_misses, 3 * kRegCacheCapacity);
        EXPECT_GT(f.stats().credit_stalls, 10u);
        expect_fault_free(f);
        return t;
    };
    const auto lossless = timings(false);
    const auto reliable = timings(true);
    EXPECT_GT(lossless.size(), static_cast<std::size_t>(kPackets));  // + replies
    EXPECT_EQ(lossless, reliable);
    for (const auto& [id, times] : lossless) {
        EXPECT_EQ(times.second >= 0, id < kPackets && id % 2 == 0)
            << "packet " << id;
    }
}

TEST(FabricReliability, DroppedPacketIsRetransmitted) {
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    // The first transmission attempts fall inside the outage; a later
    // retry lands after it lifts.
    cfg.fault.down.push_back({0, 1, 0, sim::microseconds(100)});
    Fabric f(eng, 2, cfg);
    int got = 0;
    bool acked = false;
    f.set_handler(1, [&](Packet&&) { ++got; });
    Packet p = control(0, 1);
    f.send(std::move(p), 0, {.on_acked = [&](sim::Time) { acked = true; }});
    eng.run();
    EXPECT_EQ(got, 1);
    EXPECT_TRUE(acked);
    EXPECT_GE(f.stats().drops_injected, 1u);
    EXPECT_GE(f.stats().retransmits, 1u);
    EXPECT_EQ(f.stats().links_failed, 0u);
    EXPECT_FALSE(f.link_failed(0, 1));
    EXPECT_EQ(f.credits(0), f.config().tx_credits);  // credit returned
}

TEST(FabricReliability, RetryBudgetExhaustionFailsTheLink) {
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    cfg.fault.down.push_back({0, 1, 0, sim::seconds(100)});  // permanent
    Fabric f(eng, 2, cfg);
    f.set_handler(1, [](Packet&&) {});
    Status first = NBE_SUCCESS;
    Status second = NBE_SUCCESS;
    f.send(control(0, 1), 0, {.on_error = [&](Status s) { first = s; }});
    f.send(control(0, 1), 0, {.on_error = [&](Status s) { second = s; }});
    eng.run();
    // The packet that exhausted the budget reports the timeout; the one
    // behind it is collateral of the link failure.
    EXPECT_EQ(first, NBE_ERR_TIMEOUT);
    EXPECT_EQ(second, NBE_ERR_LINK_DOWN);
    EXPECT_TRUE(f.link_failed(0, 1));
    EXPECT_FALSE(f.link_failed(1, 0));  // directed: reverse link unaffected
    EXPECT_EQ(f.stats().links_failed, 1u);
    EXPECT_EQ(f.credits(0), f.config().tx_credits);  // credits returned

    // Sends on a dead link fail immediately.
    Status after = NBE_SUCCESS;
    Packet c = control(0, 1);
    f.send(std::move(c), 0, {.on_error = [&](Status s) { after = s; }});
    eng.run();
    EXPECT_EQ(after, NBE_ERR_LINK_DOWN);
}

TEST(FabricReliability, LinkFailureTakesNoSmallFnHeapFallback) {
    // A scripted outage fails the link with a dozen packets in flight or
    // stalled on credits. Each error event captures the pooled completion
    // handle inline, never a moved callback too big for SmallFn.
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    cfg.fault.down.push_back({0, 1, 0, sim::seconds(100)});  // permanent
    Fabric f(eng, 2, cfg);
    f.set_handler(1, [](Packet&&) {});
    constexpr int kPackets = 12;
    std::vector<Status> errs;
    const std::uint64_t before = sim::smallfn_heap_fallbacks();
    for (int i = 0; i < kPackets; ++i) {
        f.send(control(0, 1), 0,
               {.on_error = [&errs](Status s) { errs.push_back(s); }});
    }
    eng.run();
    EXPECT_EQ(sim::smallfn_heap_fallbacks(), before);
    ASSERT_EQ(errs.size(), static_cast<std::size_t>(kPackets));
    EXPECT_EQ(std::count(errs.begin(), errs.end(), NBE_ERR_TIMEOUT), 1);
    EXPECT_EQ(std::count(errs.begin(), errs.end(), NBE_ERR_LINK_DOWN),
              kPackets - 1);
    EXPECT_TRUE(f.link_failed(0, 1));
}

TEST(FabricReliability, LinkDownHandlerFiresOnce) {
    sim::Engine eng;
    Fabric f(eng, 3, reliable_cfg());
    f.set_handler(1, [](Packet&&) {});
    std::vector<std::pair<Rank, Rank>> down;
    f.set_link_down_handler(
        [&](Rank s, Rank d) { down.emplace_back(s, d); });
    f.fail_link_now(0, 1);
    f.fail_link_now(0, 1);  // idempotent
    eng.run();
    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down[0], (std::pair<Rank, Rank>{0, 1}));
}

TEST(FabricReliability, DuplicatesAreDiscardedAtTheReceiver) {
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    cfg.fault.dup_prob = 1.0;  // every frame duplicated on the wire
    Fabric f(eng, 2, cfg);
    std::vector<std::uint64_t> order;
    f.set_handler(1, [&](Packet&& p) { order.push_back(p.header[0]); });
    for (std::uint64_t i = 0; i < 5; ++i) {
        Packet p = control(0, 1);
        p.header[0] = i;
        f.send(std::move(p));
    }
    eng.run();
    ASSERT_EQ(order.size(), 5u);  // exactly-once delivery
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
    EXPECT_GT(f.stats().dup_delivered, 0u);
}

TEST(FabricReliability, CorruptionIsDetectedAndNeverDelivered) {
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    cfg.fault.corrupt_prob = 1.0;  // checksum storm: the link cannot recover
    Fabric f(eng, 2, cfg);
    int got = 0;
    Status err = NBE_SUCCESS;
    f.set_handler(1, [&](Packet&&) { ++got; });
    Packet p = control(0, 1);
    f.send(std::move(p), 0, {.on_error = [&](Status s) { err = s; }});
    eng.run();
    EXPECT_EQ(got, 0);  // corrupted frames never reach the handler
    EXPECT_GT(f.stats().corrupt_detected, 0u);
    EXPECT_EQ(err, NBE_ERR_TIMEOUT);
    EXPECT_TRUE(f.link_failed(0, 1));
}

TEST(FabricReliability, JitterPreservesPerLinkFifo) {
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    cfg.fault.jitter_max = sim::microseconds(20);
    Fabric f(eng, 2, cfg);
    std::vector<std::uint64_t> order;
    f.set_handler(1, [&](Packet&& p) { order.push_back(p.header[0]); });
    for (std::uint64_t i = 0; i < 16; ++i) {
        Packet p = control(0, 1);
        p.header[0] = i;
        f.send(std::move(p));
    }
    eng.run();
    ASSERT_EQ(order.size(), 16u);
    for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(FabricReliability, DiagnosticDumpListsFailedLinks) {
    sim::Engine eng;
    Fabric f(eng, 2, reliable_cfg());
    f.set_handler(1, [](Packet&&) {});
    f.fail_link_now(0, 1);
    eng.run();
    // The structured records carry the failed-link state as typed fields.
    const auto records = f.diagnostic_records();
    const nbe::obs::Record* link = nullptr;
    for (const auto& r : records) {
        if (r.type() == "fabric.link") link = &r;
    }
    ASSERT_NE(link, nullptr);
    ASSERT_NE(link->find("src"), nullptr);
    EXPECT_EQ(*link->find("src"), "0");
    ASSERT_NE(link->find("dst"), nullptr);
    EXPECT_EQ(*link->find("dst"), "1");
    ASSERT_NE(link->find("failed"), nullptr);
    EXPECT_EQ(*link->find("failed"), "1");
    // The human rendering keeps the section heading deadlock reports grep.
    const std::string dump = f.diagnostic_dump();
    EXPECT_NE(dump.find("-- fabric --"), std::string::npos) << dump;
    EXPECT_NE(dump.find("fabric.link"), std::string::npos) << dump;
}

// ------------------------------------------------------------ wire storage

// A burst from one source long enough to fill several frame chunks,
// interleaved with a second source on the same destination node, arrives
// per source in send order at the times the reliable sublayer (the timing
// oracle) gives, and every chunk is back on the free list afterwards.
TEST(FabricWire, MultiChunkBurstDrainsInOrderAndFreesEveryChunk) {
    constexpr std::uint64_t kBurst = 200;  // several chunks on one channel
    struct Run {
        std::map<std::uint64_t, sim::Time> delivered;  // id -> time
        std::vector<std::uint64_t> order;              // ids, arrival order
        Fabric::ChunkCounts mid{};
        Fabric::ChunkCounts end{};
    };
    auto run = [](bool reliable) {
        sim::Engine eng;
        FabricConfig cfg;
        cfg.ranks_per_node = 2;  // nodes {0,1} {2,3}
        cfg.tx_credits = 4;
        cfg.fault.enabled = reliable;
        Fabric f(eng, 4, cfg);
        Run out;
        for (Rank r = 0; r < 4; ++r) {
            f.set_handler(r, [&](Packet&& p) {
                out.delivered[p.header[0]] = eng.now();
                out.order.push_back(p.header[0]);
            });
        }
        // Rank 0 bursts to rank 2; rank 1 interleaves sends to rank 3 and,
        // every fourth packet, a payload to rank 2.
        for (std::uint64_t i = 0; i < kBurst; ++i) {
            Packet p = control(0, 2);
            p.header[0] = i;
            f.send(std::move(p));
            if (i % 2 == 0) {
                Packet q = control(1, i % 8 == 0 ? 2 : 3);
                q.header[0] = 1000 + i;
                if (i % 8 == 0) q.payload.resize(256);
                f.send(std::move(q));
            }
        }
        out.mid = f.wire_chunks();
        eng.run();
        out.end = f.wire_chunks();
        expect_fault_free(f);
        return out;
    };
    const Run lossless = run(false);
    const Run oracle = run(true);
    ASSERT_EQ(lossless.delivered.size(), kBurst + kBurst / 2);
    EXPECT_EQ(lossless.delivered, oracle.delivered);
    EXPECT_EQ(lossless.order, oracle.order);
    // FIFO per source.
    std::uint64_t last0 = 0;
    std::uint64_t last1 = 1000;
    for (std::size_t k = 0; k < lossless.order.size(); ++k) {
        const std::uint64_t id = lossless.order[k];
        std::uint64_t& last = id < 1000 ? last0 : last1;
        if (id != 0 && id != 1000) {
            EXPECT_GT(id, last);
        }
        last = id;
    }
    EXPECT_GE(lossless.mid.made - lossless.mid.free, 3u);
    EXPECT_GT(lossless.end.made, 0u);
    EXPECT_EQ(lossless.end.free, lossless.end.made);
    EXPECT_EQ(oracle.end.made, 0u);  // the reliable path queues no frames
}

namespace {

/// Packet `i` of a mixed lossless burst, keyed by its kind. Four shapes
/// take turns: a compact control packet, one with a payload, one with an
/// on_acked completion (`acked` set), and a control packet the frame
/// cannot hold (header word 0 past 32 bits, or word 5 set).
Packet mixed_packet(std::uint32_t i, bool& acked) {
    Packet p = control(0, 1);
    p.kind = i;
    p.header[0] = i;
    p.header[1] = 0xFEED0000'00000000ull + i;
    acked = i % 4 == 2;
    switch (i % 4) {
    case 1:
        for (std::size_t w = 2; w < p.header.size(); ++w) p.header[w] = i * w;
        p.payload.resize(8 + i % 24);
        for (std::size_t b = 0; b < p.payload.size(); ++b) {
            p.payload.mutable_data()[b] = static_cast<std::byte>(i + b);
        }
        break;
    case 3:
        if (i % 8 == 3) {
            p.header[0] = (1ull << 32) + i;
        } else {
            p.header[5] = i;
        }
        break;
    default:
        break;
    }
    return p;
}

}  // namespace

// One internode channel carries a burst of more than three chunks that
// interleaves compact frames with boxed ones (payload, completion, wide
// header). Frames keep FIFO order, every packet arrives whole, each
// on_acked fires once, and delivery and ack times match the reliable
// sublayer's (the timing oracle).
TEST(FabricWire, MixedCompactAndBoxedFramesKeepFifoOrder) {
    constexpr std::uint32_t kBurst = 72;  // 4.5 chunks of 16 frames
    struct Arrival {
        sim::Time at = 0;
        std::uint32_t kind = 0;
        std::array<std::uint64_t, 6> header{};
        std::vector<std::byte> bytes;
        bool operator==(const Arrival&) const = default;
    };
    struct Run {
        std::vector<Arrival> arrivals;
        std::map<std::uint32_t, std::vector<sim::Time>> acks;
        Fabric::ChunkCounts mid{};
    };
    auto run = [](bool reliable) {
        sim::Engine eng;
        FabricConfig cfg = internode_cfg();
        cfg.fault.enabled = reliable;
        Fabric f(eng, 2, cfg);
        Run out;
        f.set_handler(1, [&](Packet&& p) {
            EXPECT_EQ(p.src, 0);
            EXPECT_EQ(p.dst, 1);
            out.arrivals.push_back(
                {eng.now(), p.kind, p.header,
                 std::vector<std::byte>(p.payload.data(),
                                        p.payload.data() + p.payload.size())});
        });
        for (std::uint32_t i = 0; i < kBurst; ++i) {
            bool acked = false;
            Packet p = mixed_packet(i, acked);
            Completion c;
            if (acked) {
                c.on_acked = [&out, i](sim::Time at) {
                    out.acks[i].push_back(at);
                };
            }
            f.send(std::move(p), 0, std::move(c));
        }
        out.mid = f.wire_chunks();
        eng.run();
        expect_fault_free(f);
        return out;
    };
    const Run lossless = run(false);
    const Run oracle = run(true);
    EXPECT_GT(lossless.mid.made - lossless.mid.free, 3u);
    ASSERT_EQ(lossless.arrivals.size(), kBurst);
    for (std::uint32_t i = 0; i < kBurst; ++i) {
        bool acked = false;
        const Packet want = mixed_packet(i, acked);
        const Arrival& got = lossless.arrivals[i];
        EXPECT_EQ(got.kind, i) << "delivery " << i;
        EXPECT_EQ(got.header, want.header) << "packet " << i;
        ASSERT_EQ(got.bytes.size(), want.payload.size()) << "packet " << i;
        EXPECT_TRUE(std::equal(got.bytes.begin(), got.bytes.end(),
                               want.payload.data()))
            << "packet " << i;
        const auto it = lossless.acks.find(i);
        EXPECT_EQ(it != lossless.acks.end() ? it->second.size() : 0u,
                  acked ? 1u : 0u)
            << "packet " << i;
    }
    EXPECT_EQ(lossless.arrivals, oracle.arrivals);
    EXPECT_EQ(lossless.acks, oracle.acks);
}

// A fabric destroyed with compact and boxed frames still queued releases
// every box, payload reference and completion record: payload buffers
// in use return to their prior count, no fabric pool dies with a block
// handed out, and the completions' captures are destroyed uncalled.
TEST(FabricWire, DestroyedFabricReleasesQueuedBoxesAndPayloads) {
    auto fabric_live = [] {
        std::uint64_t live = 0;
        for (const auto& e : sim::PoolRegistry::instance().snapshot()) {
            if (e.name.starts_with("fabric.")) live += e.stats.live;
        }
        return live;
    };
    const std::uint64_t payloads0 = payload_pool_stats().live;
    const std::uint64_t lost0 = sim::PoolRegistry::instance().lost_blocks();
    const std::uint64_t fabric_live0 = fabric_live();
    auto token = std::make_shared<int>(0);
    sim::Engine eng;
    {
        Fabric f(eng, 2, internode_cfg());
        f.set_handler(1, [](Packet&&) {});
        for (std::uint32_t i = 0; i < 40; ++i) {
            bool acked = false;
            Packet p = mixed_packet(i, acked);
            Completion c;
            if (acked) c.on_acked = [token](sim::Time) { ++*token; };
            f.send(std::move(p), 0, std::move(c));
        }
        // 10 payloads, 10 completion records and 30 boxes are out.
        EXPECT_EQ(payload_pool_stats().live, payloads0 + 10);
        EXPECT_EQ(fabric_live(), fabric_live0 + 40);
        EXPECT_EQ(token.use_count(), 11);
    }
    EXPECT_EQ(payload_pool_stats().live, payloads0);
    EXPECT_EQ(fabric_live(), fabric_live0);
    EXPECT_EQ(sim::PoolRegistry::instance().lost_blocks(), lost0);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 0);
}

TEST(FabricWire, PayloadAbove4GiBIsRejectedBeforeTouchingMemory) {
    const std::byte b{0x7f};
    const PayloadPoolStats before = payload_pool_stats();
    EXPECT_THROW((void)PayloadRef::borrow(&b, 1ull << 32), std::length_error);
    EXPECT_THROW((void)PayloadRef::copy_of(&b, 1ull << 32), std::length_error);
    PayloadRef r;
    EXPECT_THROW(r.resize(1ull << 32), std::length_error);
    const PayloadPoolStats& after = payload_pool_stats();
    EXPECT_EQ(after.acquires, before.acquires);
    EXPECT_EQ(after.borrows, before.borrows);
    EXPECT_EQ(after.bytes_copied, before.bytes_copied);
    EXPECT_TRUE(r.empty());
    // The largest describable payload still borrows (nothing is read).
    const PayloadRef max = PayloadRef::borrow(&b, PayloadRef::kMaxBytes);
    EXPECT_EQ(max.size(), PayloadRef::kMaxBytes);
}

// PeerMap answers a dense group (fence, lock_all) with one probe and any
// other group by binary search; both must agree with a plain search of
// the sorted group for every rank, present or not.
TEST(FabricWire, PeerMapFindMatchesBinarySearch) {
    const std::vector<std::vector<Rank>> groups = {
        {},
        {0},
        {3},
        {0, 1, 2, 3, 4, 5, 6, 7},      // dense
        {0, 1, 2, 5, 9},               // dense prefix, then gaps
        {1, 2, 3, 4},                  // shifted by one: never at index r
        {0, 2, 4, 6, 8, 10, 12, 14},   // sparse
        {2, 3, 7, 11, 12, 13, 20, 31}, // sparse
    };
    for (const auto& g : groups) {
        rma::PeerMap<int> m;
        m.build(g);
        int v = 0;
        for (auto& [r, val] : m) val = ++v;
        for (Rank r = -2; r < 34; ++r) {
            const auto ref = std::lower_bound(g.begin(), g.end(), r);
            const bool present = ref != g.end() && *ref == r;
            const auto it = m.find(r);
            ASSERT_EQ(it != m.end(), present) << "rank " << r;
            EXPECT_EQ(m.contains(r), present);
            if (present) {
                EXPECT_EQ(it->first, r);
                EXPECT_EQ(it - m.begin(), ref - g.begin());
                EXPECT_EQ(it->second, static_cast<int>(ref - g.begin()) + 1);
            }
        }
    }
}
