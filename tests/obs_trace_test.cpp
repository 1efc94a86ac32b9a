// Tracer tests: the golden late-post trace (byte-identical across runs,
// expected span ordering with the stall visible), Chrome JSON structure,
// the buffered exporter against a plain ostream reference writer (also
// for schemas that share a name, a text, a cache set or more than the
// cache's slots), the schema cache's hits, the fixed-size record's arg
// limit, the deadlock report's recent events, a failed export, and the
// disabled-path guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/window.hpp"
#include "sim/engine.hpp"

using namespace nbe;
using nbe::obs::TraceEvent;

static_assert(sizeof(TraceEvent) == 64);

namespace {

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
    const std::int64_t mag = ns < 0 ? -ns : ns;
    std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", sign,
                  static_cast<long long>(mag / 1000),
                  static_cast<long long>(mag % 1000));
    return buf;
}

std::string ref_chrome_json(const obs::Tracer& t) {
    const auto& events = t.events();
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

const TraceEvent* find_event(const obs::Tracer& t, const std::string& name,
                             int rank = -1) {
    for (const auto& e : t.events()) {
        if (name == t.schema(e).name && (rank < 0 || rank == e.rank)) return &e;
    }
    return nullptr;
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
    const TraceEvent* start = find_event(tr, "start", 1);
    const TraceEvent* post = find_event(tr, "post", 0);
    ASSERT_NE(start, nullptr);
    ASSERT_NE(post, nullptr);
    EXPECT_LT(start->ts, post->ts);
    // ...by (at least) the injected 1000 us delay: the late-post stall.
    EXPECT_GE(post->ts - start->ts, kDelay);

    // The transfer issues only after the post: the gap between the origin's
    // epoch opening and its op.transfer span IS the stall in the timeline.
    const TraceEvent* transfer = find_event(tr, "op.transfer", 1);
    ASSERT_NE(transfer, nullptr);
    EXPECT_TRUE(transfer->is_span());
    EXPECT_GE(transfer->ts, post->ts);

    // The deferred-epoch span covers open -> activation on the origin.
    const TraceEvent* deferred = find_event(tr, "epoch.deferred", 1);
    if (deferred != nullptr) {  // present unless activation was immediate
        EXPECT_TRUE(deferred->is_span());
        EXPECT_LE(deferred->ts, post->ts);
    }

    // Epoch spans close out on both sides; the target's exposure epoch
    // cannot complete before the origin's done notification.
    const TraceEvent* exposure = find_event(tr, "epoch.exposure", 0);
    const TraceEvent* access = find_event(tr, "epoch.access", 1);
    ASSERT_NE(exposure, nullptr);
    ASSERT_NE(access, nullptr);
    EXPECT_TRUE(exposure->is_span());
    EXPECT_TRUE(access->is_span());
    EXPECT_GE(exposure->ts + exposure->dur, access->ts + access->dur);

    // The target's compute span is the app-side view of the same stall.
    const TraceEvent* compute = find_event(tr, "compute", 0);
    ASSERT_NE(compute, nullptr);
    EXPECT_EQ(compute->dur, kDelay);

    // Fabric events tie the timeline to the wire.
    EXPECT_NE(find_event(tr, "pkt.tx"), nullptr);
    EXPECT_NE(find_event(tr, "pkt.rx"), nullptr);
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
    EXPECT_TRUE(run.tracer().events().empty());
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
    JobConfig cfg;
    cfg.ranks = 64;
    cfg.obs.trace = true;
    Job job(cfg);
    job.run([](Proc& p) {
        Window win = p.create_window(4096);
        for (int i = 0; i < 4; ++i) {
            win.fence();
            const std::int64_t v = p.rank() + i;
            win.put(&v, sizeof(v), (p.rank() + 1) % p.size(),
                    static_cast<std::size_t>(p.rank()) * sizeof(v));
        }
        win.fence();
    });
    const auto& tracer = job.world().obs().tracer();
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
    const auto& evs = t.events();
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
    for (const auto& ev : t.events()) {
        EXPECT_EQ(std::string_view(t.schema(ev).name), "op.issue");
        EXPECT_EQ(std::string_view(t.schema(ev).key[0]), "op");
    }
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
    const auto& evs = t.events();
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
    const auto& evs = t.events();
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
    const auto& evs = t.events();
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
    ASSERT_EQ(t.events().size(), 1u);
    EXPECT_EQ(t.schema(t.events().front()).nargs, TraceEvent::kMaxArgs);
    EXPECT_THROW(t.instant(0, "c", "six",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5},
                            {"f", 6}}),
                 std::length_error);
    EXPECT_THROW(t.complete_at(0, "c", "six", 0, 1,
                               {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4},
                                {"e", 5}, {"f", 6}}),
                 std::length_error);
    EXPECT_EQ(t.events().size(), 1u);
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
