#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace nbe::obs {

namespace {

using namespace std::string_view_literals;

/// Events per rank a deadlock report shows.
constexpr std::size_t kRecentPerRank = 16;
/// The exporter hands its text to the stream in chunks of about this size.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;
/// Bound on the bytes of one exported event besides its schema's text: the
/// constant fields, rank, ts, dur and kMaxArgs values.
constexpr std::size_t kEventBytes = 128 + 2 * kMaxUsecChars +
                                    TraceEvent::kMaxArgs * 20;

/// One schema's export text, rendered once: `,\n{"name":...,"cat":...,"ph":"`
/// and then, per arg, its `"key":` (after a comma from the second on).
/// piece(0) is the head, piece(i + 1) arg i's key.
struct RenderedSchema {
    std::string text;
    std::array<std::uint32_t, TraceEvent::kMaxArgs + 2> end{};
    std::uint32_t nargs;

    explicit RenderedSchema(const TraceSchema& s) : nargs(s.nargs) {
        text = ",\n{\"name\":";
        append_json_string(text, s.name);
        text += ",\"cat\":"sv;
        append_json_string(text, s.cat);
        text += ",\"ph\":\""sv;
        end[1] = static_cast<std::uint32_t>(text.size());
        for (std::uint32_t i = 0; i < s.nargs; ++i) {
            if (i > 0) text += ',';
            append_json_string(text, s.key[i]);
            text += ':';
            end[i + 2] = static_cast<std::uint32_t>(text.size());
        }
    }
    [[nodiscard]] std::string_view piece(std::size_t i) const noexcept {
        return std::string_view(text).substr(end[i], end[i + 1] - end[i]);
    }
};

/// Fixed-capacity output buffer written by raw copies; flush() hands the
/// text to the stream. Callers keep each write within the slack given.
class ChunkWriter {
public:
    ChunkWriter(std::ostream& os, std::size_t slack)
        : os_(os), buf_(kFlushBytes + slack), p_(buf_.data()) {}

    void put(std::string_view s) noexcept {
        std::memcpy(p_, s.data(), s.size());
        p_ += s.size();
    }
    void put_int(std::int64_t v) noexcept { p_ = std::to_chars(p_, p_ + 20, v).ptr; }
    void put_usec(std::int64_t ns) noexcept { p_ = usec_chars(p_, ns); }
    /// Flushes once kFlushBytes are buffered; the slack then stays free.
    void maybe_flush() {
        if (static_cast<std::size_t>(p_ - buf_.data()) >= kFlushBytes) flush();
    }
    void flush() {
        os_.write(buf_.data(), p_ - buf_.data());
        p_ = buf_.data();
    }

private:
    std::ostream& os_;
    std::vector<char> buf_;
    char* p_;
};

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t u) noexcept {
    return static_cast<std::int64_t>((u >> 1) ^ (0 - (u & 1)));
}

/// LEB128: seven bits per byte, low bits first, high bit set on all but
/// the last byte.
std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

std::uint64_t get_varint(const std::uint8_t*& p) noexcept {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (b < 0x80) return v;
    }
}

/// "[12.345us] epoch post seq=1": one line of the deadlock report.
void append_recent_line(std::string& out, const TraceEvent& ev,
                        const TraceSchema& s) {
    out += '[';
    append_usec(out, ev.ts);
    out += "us] "sv;
    out += s.cat;
    out += ' ';
    out += s.name;
    if (ev.is_span()) {
        out += " dur="sv;
        append_usec(out, ev.dur);
        out += "us"sv;
    }
    for (std::size_t i = 0; i < s.nargs; ++i) {
        out += ' ';
        out += s.key[i];
        out += '=';
        append_int(out, ev.value[i]);
    }
}

}  // namespace

void Tracer::record(sim::Time ts, sim::Duration dur, int rank,
                    const char* cat, const char* name,
                    std::initializer_list<Arg> args) {
    if (args.size() > TraceEvent::kMaxArgs) {
        throw std::length_error(std::string("obs::Tracer: event '") + name +
                                "' has more than " +
                                std::to_string(TraceEvent::kMaxArgs) + " args");
    }
    const std::uint32_t id = intern(cat, name, args);
    if (blocks_.empty() || kBlockBytes - blocks_.back().used < kMaxEventBytes) {
        blocks_.push_back(
            {std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes), 0});
    }
    Block& b = blocks_.back();
    std::uint8_t* p = b.bytes.get() + b.used;
    p = put_varint(p, id);
    p = put_varint(p, zigzag(rank));
    // Unsigned difference: wraps instead of overflowing on extreme stamps.
    p = put_varint(p, zigzag(static_cast<std::int64_t>(
                          static_cast<std::uint64_t>(ts) -
                          static_cast<std::uint64_t>(last_ts_))));
    p = put_varint(p, static_cast<std::uint64_t>(dur) + 1);
    for (const Arg& a : args) p = put_varint(p, zigzag(a.second));
    b.used = static_cast<std::size_t>(p - b.bytes.get());
    last_ts_ = ts;
    ++count_;
    const auto i = static_cast<std::uint64_t>(rank - rank_base_);
    if (i >= ranks_seen_.size() || !ranks_seen_[i]) note_rank(rank);
}

bool Tracer::Cursor::next(TraceEvent& ev) noexcept {
    const std::vector<Block>& blocks = t_.blocks_;
    while (block_ < blocks.size() && pos_ == blocks[block_].used) {
        ++block_;
        pos_ = 0;
    }
    if (block_ == blocks.size()) return false;
    const std::uint8_t* const base = blocks[block_].bytes.get();
    const std::uint8_t* p = base + pos_;
    ev.schema = static_cast<std::uint32_t>(get_varint(p));
    ev.rank = static_cast<int>(unzigzag(get_varint(p)));
    ts_ = static_cast<sim::Time>(static_cast<std::uint64_t>(ts_) +
                                 static_cast<std::uint64_t>(
                                     unzigzag(get_varint(p))));
    ev.ts = ts_;
    ev.dur = static_cast<sim::Duration>(get_varint(p) - 1);
    const std::uint32_t nargs = t_.schemas_[ev.schema].nargs;
    for (std::uint32_t i = 0; i < TraceEvent::kMaxArgs; ++i) {
        ev.value[i] = i < nargs ? unzigzag(get_varint(p)) : 0;
    }
    pos_ = static_cast<std::size_t>(p - base);
    return true;
}

std::size_t Tracer::cache_set(const char* cat, const char* name,
                              std::size_t nargs) noexcept {
    // Fibonacci hashing of the pointers: the top bits pick the set.
    const std::uint64_t key = std::bit_cast<std::uintptr_t>(name) ^
                              (std::bit_cast<std::uintptr_t>(cat) << 1) ^
                              nargs;
    constexpr int kSetBits = std::countr_zero(kCacheSets);
    return (key * 0x9E3779B97F4A7C15ull) >> (64 - kSetBits);
}

std::uint32_t Tracer::intern(const char* cat, const char* name,
                             std::initializer_list<Arg> args) {
    const auto same = [&](std::uint32_t id) {
        if (id >= schemas_.size()) return false;
        const TraceSchema& s = schemas_[id];
        return s.name == name && s.cat == cat && s.nargs == args.size() &&
               std::equal(args.begin(), args.end(), s.key.begin(),
                          [](const Arg& a, const char* k) { return a.first == k; });
    };
    auto& set = cache_[cache_set(cat, name, args.size())];
    if (same(set[0])) return set[0];
    if (same(set[1])) {
        std::swap(set[0], set[1]);
        return set[0];
    }
    ++intern_misses_;
    std::uint32_t id = 0;
    while (id < schemas_.size() && !same(id)) ++id;
    set[1] = set[0];
    set[0] = id;
    if (id == schemas_.size()) {
        TraceSchema& s = schemas_.emplace_back();
        s.cat = cat;
        s.name = name;
        s.nargs = static_cast<std::uint32_t>(args.size());
        std::transform(args.begin(), args.end(), s.key.begin(),
                       [](const Arg& a) { return a.first; });
    }
    return id;
}

void Tracer::note_rank(int rank) {
    if (ranks_seen_.empty()) rank_base_ = rank;
    if (rank < rank_base_) {
        ranks_seen_.insert(ranks_seen_.begin(),
                           static_cast<std::size_t>(rank_base_ - rank), false);
        rank_base_ = rank;
    }
    const auto i = static_cast<std::size_t>(rank - rank_base_);
    if (i >= ranks_seen_.size()) ranks_seen_.resize(i + 1);
    ranks_seen_[i] = true;
}

void Tracer::write_chrome_json(std::ostream& os) const {
    const std::vector<RenderedSchema> rendered(schemas_.begin(), schemas_.end());
    std::size_t longest = 0;
    for (const auto& r : rendered) longest = std::max(longest, r.text.size());
    ChunkWriter out(os, longest + kEventBytes);
    out.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":\"nbepoch\"}}"sv);
    for (std::size_t i = 0; i < ranks_seen_.size(); ++i) {
        if (!ranks_seen_[i]) continue;
        const std::int64_t r = rank_base_ + static_cast<std::int64_t>(i);
        out.put(",\n{\"ph\":\"M\",\"pid\":0,\"tid\":"sv);
        out.put_int(r);
        out.put(",\"name\":\"thread_name\",\"args\":{\"name\":\"rank "sv);
        out.put_int(r);
        out.put("\"}}"sv);
        out.maybe_flush();
    }
    for_each_event([&](const TraceEvent& ev) {
        const RenderedSchema& s = rendered[ev.schema];
        out.put(s.piece(0));
        out.put(ev.is_span() ? "X\",\"pid\":0,\"tid\":"sv
                             : "i\",\"pid\":0,\"tid\":"sv);
        out.put_int(ev.rank);
        out.put(",\"ts\":"sv);
        out.put_usec(ev.ts);
        if (ev.is_span()) {
            out.put(",\"dur\":"sv);
            out.put_usec(ev.dur);
        } else {
            out.put(",\"s\":\"t\""sv);
        }
        out.put(",\"args\":{"sv);
        for (std::size_t i = 0; i < s.nargs; ++i) {
            out.put(s.piece(i + 1));
            out.put_int(ev.value[i]);
        }
        out.put("}}"sv);
        out.maybe_flush();
    });
    out.put("\n]}\n"sv);
    out.flush();
}

std::string Tracer::render_recent() const {
    // recent[r]: rank r's last kRecentPerRank events, a ring indexed by
    // the rank's event count.
    struct Ring {
        std::array<TraceEvent, kRecentPerRank> ev;
        std::size_t n = 0;
    };
    std::vector<Ring> recent;
    for_each_event([&](const TraceEvent& ev) {
        if (ev.rank < 0) return;
        const auto r = static_cast<std::size_t>(ev.rank);
        if (r >= recent.size()) recent.resize(r + 1);
        Ring& ring = recent[r];
        ring.ev[ring.n++ % kRecentPerRank] = ev;
    });
    if (recent.empty()) return {};
    std::string out = "-- recent events --\n";
    for (std::size_t r = 0; r < recent.size(); ++r) {
        const Ring& ring = recent[r];
        if (ring.n == 0) continue;
        out += "  rank"sv;
        append_int(out, static_cast<std::int64_t>(r));
        out += ":\n"sv;
        for (std::size_t k = ring.n - std::min(ring.n, kRecentPerRank);
             k < ring.n; ++k) {
            const TraceEvent& ev = ring.ev[k % kRecentPerRank];
            out += "    "sv;
            append_recent_line(out, ev, schema(ev));
            out += '\n';
        }
    }
    return out;
}

}  // namespace nbe::obs
