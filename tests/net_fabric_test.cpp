// Unit tests for the fabric model: timing (latency, bandwidth, NIC TX
// serialization), flow-control credits, topology, and the registration
// cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fabric.hpp"

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
    const auto& cfg = f.config();
    const auto expect = cfg.sw_overhead +
                        sim::serialization_delay(cfg.control_bytes,
                                                 cfg.inter_bandwidth) +
                        cfg.inter_latency;
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
    EXPECT_EQ(acked, delivered + f.config().inter_latency);
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
    EXPECT_EQ(f.credits(0), 2);    // credits fully restored
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
    FabricConfig cfg = internode_cfg();
    cfg.reg_cache_capacity = 2;
    Fabric f(eng, 2, cfg);
    // Small buffers never pin.
    EXPECT_EQ(f.pin(0, 1, 64), 0);
    EXPECT_EQ(f.stats().pin_misses, 0u);
    // First large use: miss.
    EXPECT_EQ(f.pin(0, 1, 1 << 20), cfg.pin_cost);
    // Second use of the same buffer: hit.
    EXPECT_EQ(f.pin(0, 1, 1 << 20), 0);
    EXPECT_EQ(f.stats().pin_hits, 1u);
    // Fill beyond capacity evicts the LRU entry.
    EXPECT_EQ(f.pin(0, 2, 1 << 20), cfg.pin_cost);
    EXPECT_EQ(f.pin(0, 3, 1 << 20), cfg.pin_cost);  // evicts key 1
    EXPECT_EQ(f.pin(0, 1, 1 << 20), cfg.pin_cost);  // miss again
    EXPECT_EQ(f.stats().pin_misses, 4u);
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
              1000 + f.config().header_bytes + f.config().control_bytes);
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

FabricConfig reliable_cfg() {
    FabricConfig cfg = internode_cfg();
    cfg.reliability.enabled = true;
    return cfg;
}

}  // namespace

TEST(FabricReliability, FaultFreeTimingMatchesLosslessPath) {
    auto timings = [](bool reliable) {
        sim::Engine eng;
        FabricConfig cfg = internode_cfg();
        cfg.reliability.enabled = reliable;
        Fabric f(eng, 2, cfg);
        sim::Time delivered = -1;
        sim::Time acked = -1;
        f.set_handler(1, [&](Packet&&) { delivered = eng.now(); });
        Packet p = control(0, 1);
        p.payload.resize(1 << 16);
        f.send(std::move(p), 0, {.on_acked = [&](sim::Time t) { acked = t; }});
        eng.run();
        return std::pair{delivered, acked};
    };
    EXPECT_EQ(timings(false), timings(true));
}

TEST(FabricReliability, DroppedPacketIsRetransmitted) {
    sim::Engine eng;
    FabricConfig cfg = reliable_cfg();
    cfg.fault.enabled = true;
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
    cfg.fault.enabled = true;
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
    cfg.fault.enabled = true;
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
    cfg.fault.enabled = true;
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
    cfg.fault.enabled = true;
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
    cfg.fault.enabled = true;
    cfg.fault.jitter_max = sim::microseconds(20);
    cfg.reliability.rto_margin = sim::microseconds(25);
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
