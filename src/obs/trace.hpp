// Virtual-time event tracer with Chrome trace_event JSON export.
//
// Spans ("ph":"X") and instants ("ph":"i") are recorded against the
// simulation's virtual clock, tagged with the simulated rank (exported as
// the Chrome "tid" so each rank gets its own timeline row). Because the
// engine executes strictly serially in virtual time, the event list is
// append-ordered deterministically and the exported JSON is byte-identical
// across identical seeded runs — diffable traces, which no wall-clock MPI
// tracer can offer.
//
// Cost model: when disabled (the default), every hook is a single branch on
// `enabled_`; no event is constructed. When enabled, an event is a handful
// of varints appended to fixed-size blocks (about 10 B for the fabric's
// packet events), tagged with its call site's interned schema; events are
// decoded, and the deadlock report's recent events and the JSON text
// rendered, only when asked for.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nbe::obs {

/// One recorded event, as the tracer decodes it. What every event of one
/// call site shares (category, name, arg keys) is interned once as a
/// TraceSchema, so recording copies no string.
struct TraceEvent {
    using Arg = std::pair<const char*, std::int64_t>;
    /// The most args any call site passes (fabric's pkt.tx span).
    static constexpr std::size_t kMaxArgs = 5;

    sim::Time ts = 0;          ///< ns, virtual
    sim::Duration dur = -1;    ///< ns; < 0 means instant, >= 0 means span
    int rank = 0;
    std::uint32_t schema = 0;  ///< index into the recording Tracer's schemas
    std::array<std::int64_t, kMaxArgs> value{};  ///< value[i] is arg key[i]

    [[nodiscard]] bool is_span() const noexcept { return dur >= 0; }
};

/// The static part of an event: its category, name and arg keys. Every
/// call site passes string literals, so a schema stores the call site's
/// pointers; they must outlive the tracer.
struct TraceSchema {
    const char* cat = "";
    const char* name = "";
    std::uint32_t nargs = 0;
    std::array<const char*, TraceEvent::kMaxArgs> key{};  ///< first nargs used
};

class Tracer {
public:
    using Arg = TraceEvent::Arg;

    Tracer(sim::Engine& engine, bool enabled)
        : engine_(engine), enabled_(enabled) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    [[nodiscard]] sim::Time now() const noexcept { return engine_.now(); }

    /// Records a point event at the current virtual time.
    void instant(int rank, const char* cat, const char* name,
                 std::initializer_list<Arg> args = {}) {
        if (!enabled_) return;
        record(engine_.now(), -1, rank, cat, name, args);
    }

    /// Records a span [t0, now].
    void complete(int rank, const char* cat, const char* name, sim::Time t0,
                  std::initializer_list<Arg> args = {}) {
        complete_at(rank, cat, name, t0, engine_.now(), args);
    }

    /// Records a span [t0, t1] (t1 may lie in the virtual future, e.g. a
    /// packet's wire occupancy scheduled at transmit time).
    void complete_at(int rank, const char* cat, const char* name, sim::Time t0,
                     sim::Time t1, std::initializer_list<Arg> args = {}) {
        if (!enabled_) return;
        record(t0, t1 >= t0 ? t1 - t0 : 0, rank, cat, name, args);
    }

    /// Calls f(const TraceEvent&) on every recorded event, decoded, in
    /// record order. The event passed is valid only during its call.
    template <class F>
    void for_each_event(F&& f) const {
        Cursor c(*this);
        TraceEvent ev;
        while (c.next(ev)) f(std::as_const(ev));
    }

    [[nodiscard]] std::size_t event_count() const noexcept { return count_; }

    /// Bytes of the blocks that hold the encoded events.
    [[nodiscard]] std::size_t stored_bytes() const noexcept {
        return blocks_.size() * kBlockBytes;
    }

    /// Category, name and arg keys of an event this tracer recorded.
    [[nodiscard]] const TraceSchema& schema(const TraceEvent& ev) const {
        return schemas_[ev.schema];
    }

    /// Schema lookups that missed the cache and scanned the schema table,
    /// each schema's first sighting included.
    [[nodiscard]] std::uint64_t intern_misses() const noexcept {
        return intern_misses_;
    }

    /// The schema-cache set a call site with these pointers and this arg
    /// count maps to.
    [[nodiscard]] static std::size_t cache_set(const char* cat,
                                               const char* name,
                                               std::size_t nargs) noexcept;

    /// Chrome trace_event JSON ("chrome://tracing" / Perfetto loadable).
    /// Timestamps are virtual microseconds with ns precision; tid = rank.
    void write_chrome_json(std::ostream& os) const;

    /// Renders each rank's most recent events for deadlock reports:
    ///   -- recent events --
    ///     rank0: [12.345us] epoch post seq=1 ...
    /// Returns "" when tracing is off or nothing was recorded.
    [[nodiscard]] std::string render_recent() const;

private:
    /// Events are stored in blocks of this many bytes, none split across two.
    static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;
    /// The longest encoding of one event: at most ten bytes per varint.
    static constexpr std::size_t kMaxEventBytes =
        10 * (4 + TraceEvent::kMaxArgs);

    struct Block {
        std::unique_ptr<std::uint8_t[]> bytes;
        std::size_t used = 0;
    };

    /// Decodes a tracer's events forward, one per next().
    class Cursor {
    public:
        explicit Cursor(const Tracer& t) noexcept : t_(t) {}
        /// Decodes the next event into `ev`; false after the last.
        bool next(TraceEvent& ev) noexcept;

    private:
        const Tracer& t_;
        std::size_t block_ = 0;
        std::size_t pos_ = 0;
        sim::Time ts_ = 0;
    };

    /// Appends one event; throws std::length_error beyond kMaxArgs args.
    void record(sim::Time ts, sim::Duration dur, int rank, const char* cat,
                const char* name, std::initializer_list<Arg> args);
    /// Id of the schema (cat, name, arg keys), added on first sight.
    std::uint32_t intern(const char* cat, const char* name,
                         std::initializer_list<Arg> args);
    /// Adds `rank` to ranks_seen_, widening it as needed.
    void note_rank(int rank);

    /// Sets of the schema cache (two ids each) in front of the schema table.
    static constexpr std::size_t kCacheSets = 128;

    sim::Engine& engine_;
    bool enabled_ = false;
    /// Each event as varints: schema id, zigzag rank, zigzag ts delta from
    /// the previous event, dur + 1 (0 for an instant), then one zigzag value
    /// per schema arg.
    std::vector<Block> blocks_;
    std::size_t count_ = 0;
    sim::Time last_ts_ = 0;  ///< ts of the newest event, the next delta's base
    std::vector<TraceSchema> schemas_;
    /// 2-way set-associative: two schema ids per set, most recently used
    /// first, keyed by the call site's pointers, so two hot call sites that
    /// share a set both stay cached. An id only suggests a schema: every
    /// hit is checked against the full schema.
    std::array<std::array<std::uint32_t, 2>, kCacheSets> cache_{};
    std::uint64_t intern_misses_ = 0;
    /// ranks_seen_[i]: rank rank_base_ + i recorded an event (one
    /// thread_name row each in the export).
    std::vector<bool> ranks_seen_;
    std::int64_t rank_base_ = 0;
};

/// RAII scope recording a span over its own lifetime. Captures nothing
/// when the tracer is null or disabled.
class SpanGuard {
public:
    SpanGuard(Tracer* t, int rank, const char* cat, const char* name) noexcept
        : t_(t && t->enabled() ? t : nullptr),
          rank_(rank),
          cat_(cat),
          name_(name),
          t0_(t_ ? t_->now() : 0) {}
    ~SpanGuard() {
        if (t_) t_->complete(rank_, cat_, name_, t0_);
    }
    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

private:
    Tracer* t_;
    int rank_;
    const char* cat_;
    const char* name_;
    sim::Time t0_;
};

}  // namespace nbe::obs
