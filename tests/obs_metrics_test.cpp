// Unit tests for the obs metrics registry: counter/gauge/histogram
// semantics (including the Welford accumulator absorbed from the old
// sim::Accumulator), exponential bucket layout, the deterministic JSON
// snapshot schema, and the unified view over the per-subsystem stats
// structs published into one registry by a running job.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/window.hpp"
#include "obs/metrics.hpp"

using namespace nbe;
using namespace nbe::obs;

TEST(ObsCounter, IncrementAndSet) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.set(7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(ObsGauge, SetAndAdd) {
    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(1.5);
    g.add(0.25);
    EXPECT_DOUBLE_EQ(g.value(), 1.75);
}

// Ported from the deleted sim::Accumulator tests: identical sequences must
// produce identical moments.
TEST(ObsHistogram, WelfordMoments) {
    Histogram h;
    for (double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_NEAR(h.stddev(), 1.2909944487358056, 1e-12);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
}

TEST(ObsHistogram, EmptyIsSafe) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.variance(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(ObsHistogram, ExponentialBuckets) {
    Histogram h(HistogramOptions{1.0, 2.0, 4});  // bounds 1,2,4,8 + overflow
    EXPECT_EQ(h.bucket_count(), 5u);
    EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucket_bound(3), 8.0);
    EXPECT_TRUE(std::isinf(h.bucket_bound(4)));
    h.observe(0.5);   // bucket 0: (-inf, 1]
    h.observe(1.0);   // bucket 0 (bounds are inclusive)
    h.observe(1.5);   // bucket 1: (1, 2]
    h.observe(8.0);   // bucket 3
    h.observe(100.0); // overflow
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
}

TEST(ObsHistogram, QuantileEndsExact) {
    Histogram h(HistogramOptions{1.0, 2.0, 10});
    for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) h.observe(v);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
    const double med = h.quantile(0.5);
    EXPECT_GE(med, 1.0);
    EXPECT_LE(med, 4.0);
}

TEST(ObsRegistry, FindOrCreateStableReferences) {
    Registry reg;
    Counter& a = reg.counter("x");
    a.inc(3);
    // Creating more metrics must not invalidate the first reference.
    for (int i = 0; i < 100; ++i) {
        std::string name = "c";
        name += std::to_string(i);
        reg.counter(name);
    }
    Counter& b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.find_counter("x"), &a);
    EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

TEST(ObsRegistry, PublishersRunAtCollect) {
    Registry reg;
    int runs = 0;
    reg.add_publisher([&](Registry& r) {
        ++runs;
        r.counter("pub.value").set(99);
    });
    EXPECT_EQ(runs, 0);  // registration alone never runs the publisher
    reg.collect();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(reg.find_counter("pub.value")->value(), 99u);
    (void)reg.json();  // json() collects too
    EXPECT_EQ(runs, 2);
}

TEST(ObsRegistry, JsonSchema) {
    Registry reg;
    reg.counter("a.count").inc(5);
    reg.gauge("a.gauge").set(1.5);
    Histogram& h = reg.histogram("a.hist", HistogramOptions{1.0, 2.0, 4});
    h.observe(1.0);
    h.observe(100.0);
    const std::string j = reg.json();
    EXPECT_NE(j.find("\"counters\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"gauges\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"histograms\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"a.count\":5"), std::string::npos) << j;
    EXPECT_NE(j.find("\"a.gauge\":1.5"), std::string::npos) << j;
    EXPECT_NE(j.find("\"count\":2"), std::string::npos) << j;
    // Non-zero buckets only; the overflow bucket serializes as "inf".
    EXPECT_NE(j.find("\"le\":\"inf\""), std::string::npos) << j;
    EXPECT_EQ(j.find("\"n\":0"), std::string::npos) << j;
}

TEST(ObsRegistry, JsonDeterministicAcrossInsertionOrder) {
    Registry a;
    a.counter("one").inc(1);
    a.counter("two").inc(2);
    Registry b;
    b.counter("two").inc(2);
    b.counter("one").inc(1);
    EXPECT_EQ(a.json(), b.json());
}

namespace {

/// Small two-rank fence job with obs metrics on; returns the registry
/// snapshot JSON plus the native stats for cross-checking.
struct JobSnapshot {
    std::string json;
    std::uint64_t rma_epochs_completed = 0;
    std::uint64_t fabric_packets_sent = 0;
    std::uint64_t rt_mpi_calls_rank0 = 0;
};

JobSnapshot run_fence_job() {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.fabric.ranks_per_node = 1;
    cfg.obs.metrics = true;
    JobSnapshot out;
    Job job(cfg);
    job.run([](Proc& p) {
        Window win = p.create_window(1024);
        win.fence();
        if (p.rank() == 0) {
            std::vector<std::byte> buf(256, std::byte{1});
            win.put(buf.data(), buf.size(), 1, 0);
        }
        win.fence();
    });
    out.rma_epochs_completed = job.rma().stats(0).epochs_completed +
                               job.rma().stats(1).epochs_completed;
    out.fabric_packets_sent = job.world().fabric().stats().packets_sent;
    out.rt_mpi_calls_rank0 = job.world().stats(0).mpi_calls;
    out.json = job.world().obs().metrics().json();
    return out;
}

}  // namespace

TEST(ObsRegistry, UnifiesSubsystemStats) {
    const JobSnapshot snap = run_fence_job();
    ASSERT_GT(snap.rma_epochs_completed, 0u);
    ASSERT_GT(snap.fabric_packets_sent, 0u);
    // Every scattered stats struct is reachable through the one snapshot.
    EXPECT_NE(snap.json.find("\"rma.total.epochs_completed\":" +
                             std::to_string(snap.rma_epochs_completed)),
              std::string::npos)
        << snap.json;
    EXPECT_NE(snap.json.find("\"fabric.packets_sent\":" +
                             std::to_string(snap.fabric_packets_sent)),
              std::string::npos)
        << snap.json;
    EXPECT_NE(snap.json.find("\"rt.rank0.mpi_calls\":" +
                             std::to_string(snap.rt_mpi_calls_rank0)),
              std::string::npos)
        << snap.json;
    // Derived per-epoch histograms are live when metrics are enabled.
    EXPECT_NE(snap.json.find("\"rma.epoch_active_ns\""), std::string::npos)
        << snap.json;
}

TEST(ObsRegistry, SnapshotDeterministicAcrossRuns) {
    const JobSnapshot a = run_fence_job();
    const JobSnapshot b = run_fence_job();
    EXPECT_EQ(a.json, b.json);
}
