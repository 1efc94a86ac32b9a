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
// `enabled_`; no event is constructed. When enabled, an event is one
// fixed-size record appended to chunked storage; the deadlock report's
// recent events and the JSON text are rendered only when asked for.
// NBE_TRACE_SPAN additionally compiles to nothing when NBE_OBS_ENABLED is
// defined to 0, for builds that must prove the hooks are free.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"

#ifndef NBE_OBS_ENABLED
#define NBE_OBS_ENABLED 1
#endif

namespace nbe::obs {

/// One recorded event: a fixed-size record with its args inline. Names,
/// categories and arg keys are static string literals at every call site,
/// so the record stores raw pointers and recording allocates nothing.
struct TraceEvent {
    using Arg = std::pair<const char*, std::int64_t>;
    /// The most args any call site passes (fabric's pkt.tx span).
    static constexpr std::size_t kMaxArgs = 5;

    sim::Time ts = 0;        ///< ns, virtual
    sim::Duration dur = -1;  ///< ns; < 0 means instant, >= 0 means span
    int rank = 0;
    std::uint32_t nargs = 0;
    const char* cat = "";
    const char* name = "";
    std::array<Arg, kMaxArgs> arg{};

    [[nodiscard]] bool is_span() const noexcept { return dur >= 0; }
    [[nodiscard]] std::span<const Arg> args() const noexcept {
        return {arg.data(), nargs};
    }
};

class Tracer {
public:
    using Arg = TraceEvent::Arg;

    Tracer(sim::Engine& engine, bool enabled)
        : engine_(engine), enabled_(enabled) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool on) noexcept { enabled_ = on; }
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

    /// Every recorded event, in record order. Chunked storage: appending
    /// never moves or copies recorded events.
    [[nodiscard]] const std::deque<TraceEvent>& events() const noexcept {
        return events_;
    }

    /// Chrome trace_event JSON ("chrome://tracing" / Perfetto loadable).
    /// Timestamps are virtual microseconds with ns precision; tid = rank.
    void write_chrome_json(std::ostream& os) const;

    /// Renders each rank's most recent events for deadlock reports:
    ///   -- recent events --
    ///     rank0: [12.345us] epoch post seq=1 ...
    /// Returns "" when tracing is off or nothing was recorded.
    [[nodiscard]] std::string render_recent() const;

private:
    /// Appends one record; throws std::length_error beyond kMaxArgs args.
    void record(sim::Time ts, sim::Duration dur, int rank, const char* cat,
                const char* name, std::initializer_list<Arg> args);

    sim::Engine& engine_;
    bool enabled_ = false;
    std::deque<TraceEvent> events_;
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

#define NBE_OBS_CONCAT_IMPL(a, b) a##b
#define NBE_OBS_CONCAT(a, b) NBE_OBS_CONCAT_IMPL(a, b)

/// Scoped-span hook: records `name` over the enclosing scope's lifetime.
/// `tracer` is a Tracer* (may be null). Compiles to nothing when
/// NBE_OBS_ENABLED is 0.
#if NBE_OBS_ENABLED
#define NBE_TRACE_SPAN(tracer, rank, cat, name)                        \
    ::nbe::obs::SpanGuard NBE_OBS_CONCAT(nbe_obs_span_, __LINE__)(     \
        (tracer), (rank), (cat), (name))
#else
#define NBE_TRACE_SPAN(tracer, rank, cat, name) \
    do {                                        \
    } while (false)
#endif
