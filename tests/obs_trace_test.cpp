// Tracer tests: the golden late-post trace (byte-identical across runs,
// expected span ordering with the stall visible), Chrome JSON structure,
// the buffered exporter against a plain ostream reference writer (also
// for schemas that share a name, a text, a cache set or more than the
// cache's slots, and for extreme values through the varint encoding), the
// encoded store's bytes per event, the schema cache's hits, the arg limit,
// the deadlock report's recent events, a failed export, and the
// disabled-path guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/window.hpp"
#include "sim/engine.hpp"

using namespace nbe;
using nbe::obs::TraceEvent;

namespace {

/// Every event the tracer recorded, decoded, in record order.
std::vector<TraceEvent> events_of(const obs::Tracer& t) {
    std::vector<TraceEvent> out;
    out.reserve(t.event_count());
    t.for_each_event([&](const TraceEvent& ev) { out.push_back(ev); });
    return out;
}

// ---------------------------------------------------------------------
// Reference exporter: one ostream operation per field and snprintf
// number formatting. The tracer's buffered writer must match it byte for
// byte.

void ref_json_string(std::ostream& os, std::string_view s) {
    os << '"';
    for (char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\r': os << "\\r"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

std::string ref_json_usec(std::int64_t ns) {
    char buf[48];
    const char* sign = ns < 0 ? "-" : "";
    const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                     : static_cast<std::uint64_t>(ns);
    std::snprintf(buf, sizeof(buf), "%s%llu.%03llu", sign,
                  static_cast<unsigned long long>(mag / 1000),
                  static_cast<unsigned long long>(mag % 1000));
    return buf;
}

std::string ref_chrome_json(const obs::Tracer& t) {
    const std::vector<TraceEvent> events = events_of(t);
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"nbepoch\"}}";
    std::set<int> ranks;
    for (const auto& ev : events) ranks.insert(ev.rank);
    for (int r : ranks) {
        os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << r
           << ",\"name\":\"thread_name\",\"args\":{\"name\":";
        ref_json_string(os, "rank " + std::to_string(r));
        os << "}}";
    }
    for (const auto& ev : events) {
        const obs::TraceSchema& s = t.schema(ev);
        os << ",\n{\"name\":";
        ref_json_string(os, s.name);
        os << ",\"cat\":";
        ref_json_string(os, s.cat);
        os << ",\"ph\":\"" << (ev.is_span() ? 'X' : 'i')
           << "\",\"pid\":0,\"tid\":" << ev.rank
           << ",\"ts\":" << ref_json_usec(ev.ts);
        if (ev.is_span()) {
            os << ",\"dur\":" << ref_json_usec(ev.dur);
        } else {
            os << ",\"s\":\"t\"";
        }
        os << ",\"args\":{";
        bool first = true;
        for (std::size_t i = 0; i < s.nargs; ++i) {
            if (!first) os << ',';
            first = false;
            ref_json_string(os, s.key[i]);
            os << ':' << ev.value[i];
        }
        os << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

/// Byte equality of two exports. Reports the first differing offset
/// instead of a text diff, which is unusable on multi-MiB traces.
::testing::AssertionResult same_bytes(const std::string& got,
                                      const std::string& want) {
    if (got == want) return ::testing::AssertionSuccess();
    const auto at = static_cast<std::size_t>(
        std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
        got.begin());
    return ::testing::AssertionFailure()
           << "sizes " << got.size() << " vs " << want.size()
           << ", first difference at byte " << at << ": got \""
           << got.substr(at, 60) << "\" want \"" << want.substr(at, 60) << '"';
}

std::string chrome_json(const obs::Tracer& t) {
    std::ostringstream os;
    t.write_chrome_json(os);
    return os.str();
}

// ---------------------------------------------------------------------

constexpr sim::Duration kDelay = sim::microseconds(1000);

/// Canned late-post scenario: the target posts its exposure epoch 1000 us
/// late, so the origin's transfer cannot issue until the post arrives.
JobConfig late_post_config(bool trace) {
    JobConfig cfg;
    cfg.ranks = 2;
    cfg.fabric.ranks_per_node = 1;
    cfg.obs.trace = trace;
    return cfg;
}

/// A finished job, kept alive so its events can be read with their schemas.
struct TraceRun {
    std::string json;
    std::unique_ptr<Job> job;

    [[nodiscard]] const obs::Tracer& tracer() const {
        return job->world().obs().tracer();
    }
};

TraceRun run_late_post(bool trace = true) {
    TraceRun out;
    out.job = std::make_unique<Job>(late_post_config(trace));
    out.job->run([](Proc& p) {
        Window win = p.create_window(1 << 20);
        const Rank kTarget = 0;
        const Rank kOrigin = 1;
        if (p.rank() == kTarget) {
            p.compute(kDelay);  // the late post
            win.post(std::array<Rank, 1>{kOrigin});
            win.wait_exposure();
        } else {
            std::vector<std::byte> buf(1 << 20, std::byte{7});
            win.start(std::array<Rank, 1>{kTarget});
            win.put(buf.data(), buf.size(), kTarget, 0);
            win.complete();
        }
    });
    out.json = chrome_json(out.tracer());
    return out;
}

/// A copy of the first event with this name (and rank, if given).
std::optional<TraceEvent> find_event(const obs::Tracer& t,
                                     const std::string& name, int rank = -1) {
    std::optional<TraceEvent> found;
    t.for_each_event([&](const TraceEvent& e) {
        if (!found && name == t.schema(e).name && (rank < 0 || rank == e.rank)) {
            found = e;
        }
    });
    return found;
}

/// A 64-rank fence job with one put per rank and fence: its trace is
/// mostly pkt.tx/pkt.rx events (the fence's N^2 control packets).
std::unique_ptr<Job> run_fence_puts() {
    JobConfig cfg;
    cfg.ranks = 64;
    cfg.obs.trace = true;
    auto job = std::make_unique<Job>(cfg);
    job->run([](Proc& p) {
        Window win = p.create_window(4096);
        for (int i = 0; i < 4; ++i) {
            win.fence();
            const std::int64_t v = p.rank() + i;
            win.put(&v, sizeof(v), (p.rank() + 1) % p.size(),
                    static_cast<std::size_t>(p.rank()) * sizeof(v));
        }
        win.fence();
    });
    return job;
}

}  // namespace

TEST(ObsTrace, GoldenLatePostByteIdentical) {
    const TraceRun a = run_late_post();
    const TraceRun b = run_late_post();
    ASSERT_FALSE(a.json.empty());
    EXPECT_EQ(a.json, b.json);
    EXPECT_TRUE(same_bytes(a.json, ref_chrome_json(a.tracer())));
}

TEST(ObsTrace, LatePostSpanOrdering) {
    const TraceRun run = run_late_post();
    const obs::Tracer& tr = run.tracer();

    // The origin opens its access epoch before the target posts...
    const auto start = find_event(tr, "start", 1);
    const auto post = find_event(tr, "post", 0);
    ASSERT_TRUE(start.has_value());
    ASSERT_TRUE(post.has_value());
    EXPECT_LT(start->ts, post->ts);
    // ...by (at least) the injected 1000 us delay: the late-post stall.
    EXPECT_GE(post->ts - start->ts, kDelay);

    // The transfer issues only after the post: the gap between the origin's
    // epoch opening and its op.transfer span IS the stall in the timeline.
    const auto transfer = find_event(tr, "op.transfer", 1);
    ASSERT_TRUE(transfer.has_value());
    EXPECT_TRUE(transfer->is_span());
    EXPECT_GE(transfer->ts, post->ts);

    // The deferred-epoch span covers open -> activation on the origin.
    const auto deferred = find_event(tr, "epoch.deferred", 1);
    if (deferred.has_value()) {  // present unless activation was immediate
        EXPECT_TRUE(deferred->is_span());
        EXPECT_LE(deferred->ts, post->ts);
    }

    // Epoch spans close out on both sides; the target's exposure epoch
    // cannot complete before the origin's done notification.
    const auto exposure = find_event(tr, "epoch.exposure", 0);
    const auto access = find_event(tr, "epoch.access", 1);
    ASSERT_TRUE(exposure.has_value());
    ASSERT_TRUE(access.has_value());
    EXPECT_TRUE(exposure->is_span());
    EXPECT_TRUE(access->is_span());
    EXPECT_GE(exposure->ts + exposure->dur, access->ts + access->dur);

    // The target's compute span is the app-side view of the same stall.
    const auto compute = find_event(tr, "compute", 0);
    ASSERT_TRUE(compute.has_value());
    EXPECT_EQ(compute->dur, kDelay);

    // Fabric events tie the timeline to the wire.
    EXPECT_TRUE(find_event(tr, "pkt.tx").has_value());
    EXPECT_TRUE(find_event(tr, "pkt.rx").has_value());
}

TEST(ObsTrace, ChromeJsonShape) {
    const TraceRun run = run_late_post();
    const std::string& j = run.json;
    EXPECT_EQ(j.rfind("{\"displayTimeUnit\":", 0), 0u) << j.substr(0, 80);
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);  // metadata
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);  // spans
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);  // instants
    EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"post\""), std::string::npos);
    // Balanced and newline-terminated (jq-parsable; ci_trace_check.sh
    // validates against the real schema).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(j.back(), '\n');
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
    const TraceRun run = run_late_post(/*trace=*/false);
    EXPECT_EQ(run.tracer().event_count(), 0u);
    EXPECT_EQ(run.tracer().stored_bytes(), 0u);
    EXPECT_TRUE(run.json.find("\"ph\":\"X\"") == std::string::npos);
}

TEST(ObsTrace, DeadlockReportIncludesRecentEvents) {
    JobConfig cfg = late_post_config(/*trace=*/true);
    try {
        Job job(cfg);
        job.run([](Proc& p) {
            Window win = p.create_window(1024);
            if (p.rank() == 0) {
                // Posts toward rank 1 and waits; rank 1 never opens the
                // matching access epoch -> guaranteed deadlock.
                win.post(std::array<Rank, 1>{1});
                win.wait_exposure();
            }
        });
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("-- recent events --"), std::string::npos) << msg;
        EXPECT_NE(msg.find("post"), std::string::npos) << msg;
        // The structured rma section is still rendered alongside the ring.
        EXPECT_NE(msg.find("-- rma open epochs --"), std::string::npos) << msg;
        EXPECT_NE(msg.find("kind=exposure"), std::string::npos) << msg;
    }
}

// A 64-rank fence job's trace is several MiB, so the exporter hands it to
// the stream in several chunks; every chunk boundary must be invisible.
TEST(ObsTrace, MultiChunkExportMatchesReferenceWriter) {
    const auto job = run_fence_puts();
    const auto& tracer = job->world().obs().tracer();
    const std::string json = chrome_json(tracer);
    EXPECT_GT(json.size(), std::size_t{3} << 20);
    EXPECT_TRUE(same_bytes(json, ref_chrome_json(tracer)));
}

TEST(ObsTrace, EscapedNamesMatchReferenceWriter) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    t.instant(3, "cat\"quote", "back\\slash", {{"k\ney", -42}});
    t.instant(-1, "tab\there", "ctl\x01\x1f", {{"plain", 7}, {"cr\r", 0}});
    t.complete_at(0, "utf8 \xc3\xa9", "span", 1234567, 1234999,
                  {{"a", 1}, {"b", -2}, {"c", 3}, {"d", 4}, {"e\"", 5}});
    t.complete_at(2, "engine", "backwards", 5000, 4000);
    t.complete_at(1, "engine", "before zero", -1500, -1000);
    const std::string json = chrome_json(t);
    EXPECT_NE(json.find("\"back\\\\slash\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ctl\\u0001\\u001f\""), std::string::npos) << json;
    EXPECT_TRUE(same_bytes(json, ref_chrome_json(t)));
}

// Values at the edges of each encoded field decode to what was recorded
// and export as the reference writer does: int64 extremes as args and as
// timestamps (their deltas wrap), rank -1, a span that starts before the
// previous event, a backwards span clamped to 0, 0 and 5 args, and
// instants beside zero-length spans.
TEST(ObsTrace, ExtremeValuesRoundTripThroughTheEncoding) {
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    t.instant(-1, "c", "extremes",
              {{"min", kMin}, {"max", kMax}, {"zero", 0}, {"neg", -1},
               {"one", 1}});
    t.complete_at(0, "c", "late", 5000, 9000, {{"a", kMax}});
    t.complete_at(0, "c", "early", 1000, 2000);
    t.complete_at(1, "c", "backwards", 3000, 2500, {{"a", kMin}});
    t.instant(1, "c", "point");
    t.complete_at(1, "c", "empty", 0, 0);
    t.instant(2, "c", "point");
    t.complete_at(2, "c", "far", kMax, kMax, {{"a", -1}});
    t.complete_at(-1, "c", "far", kMin, kMin, {{"a", 1}});
    t.complete_at(2, "c", "long", 0, kMax);

    struct Want {
        int rank;
        sim::Time ts;
        sim::Duration dur;
        std::vector<std::int64_t> args;
    };
    const std::vector<Want> want = {
        {-1, 0, -1, {kMin, kMax, 0, -1, 1}},
        {0, 5000, 4000, {kMax}},
        {0, 1000, 1000, {}},
        {1, 3000, 0, {kMin}},
        {1, 0, -1, {}},
        {1, 0, 0, {}},
        {2, 0, -1, {}},
        {2, kMax, 0, {-1}},
        {-1, kMin, 0, {1}},
        {2, 0, kMax, {}},
    };
    const auto evs = events_of(t);
    ASSERT_EQ(evs.size(), want.size());
    for (std::size_t k = 0; k < evs.size(); ++k) {
        SCOPED_TRACE(k);
        EXPECT_EQ(evs[k].rank, want[k].rank);
        EXPECT_EQ(evs[k].ts, want[k].ts);
        EXPECT_EQ(evs[k].dur, want[k].dur);
        ASSERT_EQ(t.schema(evs[k]).nargs, want[k].args.size());
        for (std::size_t i = 0; i < want[k].args.size(); ++i) {
            EXPECT_EQ(evs[k].value[i], want[k].args[i]);
        }
    }
    EXPECT_TRUE(same_bytes(chrome_json(t), ref_chrome_json(t)));
}

// Events spread over many blocks decode to exactly what was recorded:
// every field's encoding and the ts delta carry across block boundaries.
TEST(ObsTrace, ManyBlocksDecodeToWhatWasRecorded) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    std::uint64_t x = 88172645463325252ull;  // xorshift64 state
    const auto next = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    // Signed values of every magnitude, below 2^62 so spans cannot overflow.
    const auto any = [&] {
        const auto v = static_cast<std::int64_t>(next() >> (2 + next() % 62));
        return next() % 2 == 0 ? v : -v;
    };
    std::vector<TraceEvent> want;
    for (int k = 0; k < 40000; ++k) {
        TraceEvent ev;
        ev.rank = static_cast<int>(next() % 9) - 1;
        switch (k % 3) {
            case 0:  // an instant, at the engine's time 0
                ev.ts = 0;
                ev.dur = -1;
                t.instant(ev.rank, "c", "i");
                break;
            case 1:
                ev.ts = any();
                ev.dur = static_cast<sim::Duration>(next() % 100000);
                ev.value = {any(), any()};
                t.complete_at(ev.rank, "c", "two", ev.ts, ev.ts + ev.dur,
                              {{"a", ev.value[0]}, {"b", ev.value[1]}});
                break;
            default:
                ev.ts = any();
                ev.dur = 0;
                ev.value = {any(), any(), any(), any(), any()};
                t.complete_at(ev.rank, "c", "five", ev.ts, ev.ts,
                              {{"a", ev.value[0]}, {"b", ev.value[1]},
                               {"c", ev.value[2]}, {"d", ev.value[3]},
                               {"e", ev.value[4]}});
        }
        want.push_back(ev);
    }
    ASSERT_EQ(t.event_count(), want.size());
    EXPECT_GT(t.stored_bytes(), std::size_t{512} << 10);  // 8+ 64 KiB blocks
    std::size_t k = 0;
    std::size_t mismatches = 0;
    t.for_each_event([&](const TraceEvent& ev) {
        const TraceEvent& w = want.at(k++);
        if (ev.rank != w.rank || ev.ts != w.ts || ev.dur != w.dur ||
            ev.value != w.value) {
            ++mismatches;
        }
    });
    EXPECT_EQ(k, want.size());
    EXPECT_EQ(mismatches, 0u);
}

// Packet events are most of a traced job's events; encoded, the store
// holds at most 16 B per event, its blocks' unused tails included.
TEST(ObsTrace, PacketHeavyTraceStoresAtMostSixteenBytesPerEvent) {
    const auto job = run_fence_puts();
    const auto& t = job->world().obs().tracer();
    std::size_t packets = 0;
    t.for_each_event([&](const TraceEvent& ev) {
        const std::string_view name = t.schema(ev).name;
        if (name == "pkt.tx" || name == "pkt.rx") ++packets;
    });
    ASSERT_GT(t.event_count(), 10'000u);
    EXPECT_GT(2 * packets, t.event_count());
    EXPECT_LE(t.stored_bytes(), 16 * t.event_count())
        << t.stored_bytes() << " B for " << t.event_count() << " events";
}

// One name with two key sets (fence.close with and without `vacuous`)
// gets two schemas, and alternating between them keeps each event's keys.
TEST(ObsTrace, OneNameWithTwoKeySetsMatchesReferenceWriter) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    for (int i = 0; i < 4; ++i) {
        t.instant(0, "epoch", "fence.close",
                  {{"win", 1}, {"seq", i}, {"vacuous", true}});
        t.instant(0, "epoch", "fence.close", {{"win", 1}, {"seq", i}});
        t.instant(0, "epoch", "fence.close", {{"win", 1}, {"phase", i}});
    }
    const auto evs = events_of(t);
    ASSERT_EQ(evs.size(), 12u);
    EXPECT_EQ(std::string_view(t.schema(evs[3]).key[2]), "vacuous");
    EXPECT_EQ(t.schema(evs[4]).nargs, 2u);
    EXPECT_EQ(std::string_view(t.schema(evs[5]).key[1]), "phase");
    const std::string json = chrome_json(t);
    EXPECT_NE(json.find("\"seq\":3,\"vacuous\":1}"), std::string::npos);
    EXPECT_TRUE(same_bytes(json, ref_chrome_json(t)));
}

// Names and keys in two distinct arrays with equal text export the same
// text as one literal would.
TEST(ObsTrace, EqualTextInDistinctArraysMatchesReferenceWriter) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    const char name_a[] = "op.issue";
    const char name_b[] = "op.issue";
    const char key_a[] = "op";
    const char key_b[] = "op";
    ASSERT_NE(static_cast<const void*>(name_a), static_cast<const void*>(name_b));
    for (int i = 0; i < 3; ++i) {
        t.instant(i, "engine", name_a, {{key_a, i}});
        t.instant(i, "engine", name_b, {{key_b, -i}});
        t.instant(i, "engine", name_a, {{key_b, 10 * i}});
    }
    t.for_each_event([&](const TraceEvent& ev) {
        EXPECT_EQ(std::string_view(t.schema(ev).name), "op.issue");
        EXPECT_EQ(std::string_view(t.schema(ev).key[0]), "op");
    });
    EXPECT_TRUE(same_bytes(chrome_json(t), ref_chrome_json(t)));
}

// One name under two categories keeps each event's own category.
TEST(ObsTrace, OneNameUnderTwoCategoriesMatchesReferenceWriter) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    for (int i = 0; i < 3; ++i) {
        t.instant(0, "engine", "activate", {{"seq", i}});
        t.complete_at(1, "epoch", "activate", i, i + 5, {{"seq", i}});
    }
    const auto evs = events_of(t);
    for (std::size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(std::string_view(t.schema(evs[i]).cat),
                  i % 2 == 0 ? "engine" : "epoch");
    }
    EXPECT_TRUE(same_bytes(chrome_json(t), ref_chrome_json(t)));
}

// More call sites than the schema cache has slots: every slot is shared
// and overwritten, yet each event keeps its own name and keys.
TEST(ObsTrace, MoreSchemasThanCacheSlotsMatchReferenceWriter) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    constexpr int kNames = 300;
    std::vector<std::string> names;
    for (int i = 0; i < kNames; ++i) names.push_back("ev" + std::to_string(i));
    for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < kNames; ++i) {
            t.instant(i % 7, pass == 0 ? "c0" : "c1", names[i].c_str(),
                      {{"i", i}, {"pass", pass}});
        }
    }
    const auto evs = events_of(t);
    ASSERT_EQ(evs.size(), std::size_t{2 * kNames});
    for (std::size_t k = 0; k < evs.size(); ++k) {
        EXPECT_EQ(t.schema(evs[k]).name, names[k % kNames]);
        EXPECT_EQ(evs[k].value[0], static_cast<std::int64_t>(k % kNames));
    }
    EXPECT_TRUE(same_bytes(chrome_json(t), ref_chrome_json(t)));
}

// Two hot call sites whose pointers map to one cache set both stay cached:
// once each has been seen, alternating between them never rescans the
// schema table, and the export is unchanged.
TEST(ObsTrace, TwoSchemasInOneCacheSetBothHit) {
    // One more name than the cache has sets: two of them share a set.
    constexpr std::size_t kSets = 128;
    const char* cat = "c";
    std::vector<std::string> names;
    for (std::size_t i = 0; i <= kSets; ++i) {
        names.push_back("ev" + std::to_string(i));
    }
    const char* a = nullptr;
    const char* b = nullptr;
    for (std::size_t i = 0; i < names.size() && b == nullptr; ++i) {
        for (std::size_t j = i + 1; j < names.size(); ++j) {
            if (obs::Tracer::cache_set(cat, names[i].c_str(), 1) ==
                obs::Tracer::cache_set(cat, names[j].c_str(), 1)) {
                a = names[i].c_str();
                b = names[j].c_str();
                break;
            }
        }
    }
    ASSERT_NE(b, nullptr);

    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    t.instant(0, cat, a, {{"i", 0}});
    t.instant(0, cat, b, {{"i", 0}});
    EXPECT_EQ(t.intern_misses(), 2u);  // first sightings
    for (int i = 1; i < 50; ++i) {
        t.instant(0, cat, a, {{"i", i}});
        t.instant(0, cat, b, {{"i", i}});
    }
    EXPECT_EQ(t.intern_misses(), 2u);
    const auto evs = events_of(t);
    ASSERT_EQ(evs.size(), 100u);
    for (std::size_t k = 0; k < evs.size(); ++k) {
        EXPECT_EQ(t.schema(evs[k]).name, k % 2 == 0 ? a : b);
    }
    EXPECT_TRUE(same_bytes(chrome_json(t), ref_chrome_json(t)));
}

// The arg limit is a runtime check, not an assert: it holds in Release
// builds too, and a rejected event leaves no partial record behind.
TEST(ObsTrace, MoreThanMaxArgsRejected) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    t.instant(0, "c", "five", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}});
    ASSERT_EQ(t.event_count(), 1u);
    EXPECT_EQ(t.schema(events_of(t).front()).nargs, TraceEvent::kMaxArgs);
    EXPECT_THROW(t.instant(0, "c", "six",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5},
                            {"f", 6}}),
                 std::length_error);
    EXPECT_THROW(t.complete_at(0, "c", "six", 0, 1,
                               {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4},
                                {"e", 5}, {"f", 6}}),
                 std::length_error);
    EXPECT_EQ(t.event_count(), 1u);
    EXPECT_EQ(events_of(t).size(), 1u);
}

// The deadlock report shows exactly each rank's last 16 events, oldest
// first, after older ones were evicted; events without a rank are left out.
TEST(ObsTrace, RecentEventsKeepLastSixteenPerRank) {
    sim::Engine engine;
    obs::Tracer t(engine, /*enabled=*/true);
    EXPECT_EQ(t.render_recent(), "");
    for (int i = 0; i < 40; ++i) {
        t.complete_at(0, "engine", "step", i * 1000 + 7, i * 1000 + 507,
                      {{"i", i}});
        if (i % 10 == 0) t.instant(2, "epoch", "post", {{"seq", i}, {"n", -1}});
        t.instant(-1, "fabric", "unranked");
    }
    std::string want = "-- recent events --\n  rank0:\n";
    for (int i = 24; i < 40; ++i) {
        want += "    [" + std::to_string(i) + ".007us] engine step dur=0.500us i=" +
                std::to_string(i) + "\n";
    }
    want += "  rank2:\n";
    for (int i = 0; i < 40; i += 10) {
        want += "    [0.000us] epoch post seq=" + std::to_string(i) + " n=-1\n";
    }
    EXPECT_EQ(t.render_recent(), want);
}

// A trace that cannot be written is reported, not dropped silently: Job
// teardown cannot throw, so it names the failing path on stderr.
TEST(ObsTrace, FailedExportNamesThePath) {
    const std::string dir = ::testing::TempDir() + "nbe_missing_dir";
    std::filesystem::remove_all(dir);
    auto& ex = obs::default_export_config();
    struct Restore {
        obs::ExportConfig& ex;
        obs::ExportConfig saved;
        ~Restore() { ex = saved; }
    } restore{ex, ex};
    ex.trace_path = dir + "/t.json";
    ::testing::internal::CaptureStderr();
    {
        Job job(late_post_config(/*trace=*/true));
        job.run([](Proc& p) { p.barrier(); });
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(dir + "/t."), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(dir));
}
