#include "obs/trace.hpp"

#include <algorithm>
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

/// Sorted distinct ranks of `events`: one thread_name row each.
std::vector<int> ranks_of(const std::deque<TraceEvent>& events) {
    if (events.empty()) return {};
    const auto [lo, hi] = std::minmax_element(
        events.begin(), events.end(),
        [](const TraceEvent& a, const TraceEvent& b) { return a.rank < b.rank; });
    const int base = lo->rank;
    std::vector<bool> seen(static_cast<std::size_t>(hi->rank - base) + 1);
    for (const auto& ev : events) seen[static_cast<std::size_t>(ev.rank - base)] = true;
    std::vector<int> ranks;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        if (seen[i]) ranks.push_back(base + static_cast<int>(i));
    }
    return ranks;
}

/// "[12.345us] epoch post seq=1": one line of the deadlock report.
void append_recent_line(std::string& out, const TraceEvent& ev) {
    out += '[';
    append_usec(out, ev.ts);
    out += "us] "sv;
    out += ev.cat;
    out += ' ';
    out += ev.name;
    if (ev.is_span()) {
        out += " dur="sv;
        append_usec(out, ev.dur);
        out += "us"sv;
    }
    for (const auto& [k, v] : ev.args()) {
        out += ' ';
        out += k;
        out += '=';
        append_int(out, v);
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
    TraceEvent& ev = events_.emplace_back();
    ev.ts = ts;
    ev.dur = dur;
    ev.rank = rank;
    ev.nargs = static_cast<std::uint32_t>(args.size());
    ev.cat = cat;
    ev.name = name;
    std::copy(args.begin(), args.end(), ev.arg.begin());
}

void Tracer::write_chrome_json(std::ostream& os) const {
    std::string buf;
    buf.reserve(kFlushBytes + 1024);
    const auto flush = [&] {
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
    };
    buf += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
           "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"nbepoch\"}}"sv;
    for (int r : ranks_of(events_)) {
        buf += ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":"sv;
        append_int(buf, r);
        buf += ",\"name\":\"thread_name\",\"args\":{\"name\":"sv;
        append_json_string(buf, "rank " + std::to_string(r));
        buf += "}}"sv;
    }
    for (const auto& ev : events_) {
        buf += ",\n{\"name\":"sv;
        append_json_string(buf, ev.name);
        buf += ",\"cat\":"sv;
        append_json_string(buf, ev.cat);
        buf += ev.is_span() ? ",\"ph\":\"X\",\"pid\":0,\"tid\":"sv
                            : ",\"ph\":\"i\",\"pid\":0,\"tid\":"sv;
        append_int(buf, ev.rank);
        buf += ",\"ts\":"sv;
        append_usec(buf, ev.ts);
        if (ev.is_span()) {
            buf += ",\"dur\":"sv;
            append_usec(buf, ev.dur);
        } else {
            buf += ",\"s\":\"t\""sv;
        }
        buf += ",\"args\":{"sv;
        bool first = true;
        for (const auto& [k, v] : ev.args()) {
            if (!first) buf += ',';
            first = false;
            append_json_string(buf, k);
            buf += ':';
            append_int(buf, v);
        }
        buf += "}}"sv;
        if (buf.size() >= kFlushBytes) flush();
    }
    buf += "\n]}\n"sv;
    flush();
}

std::string Tracer::render_recent() const {
    // recent[r]: rank r's last kRecentPerRank events, newest first.
    std::vector<std::vector<const TraceEvent*>> recent;
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
        if (it->rank < 0) continue;
        const auto r = static_cast<std::size_t>(it->rank);
        if (r >= recent.size()) recent.resize(r + 1);
        if (recent[r].size() < kRecentPerRank) recent[r].push_back(&*it);
    }
    if (recent.empty()) return {};
    std::string out = "-- recent events --\n";
    for (std::size_t r = 0; r < recent.size(); ++r) {
        if (recent[r].empty()) continue;
        out += "  rank"sv;
        append_int(out, static_cast<std::int64_t>(r));
        out += ":\n"sv;
        for (auto ev = recent[r].rbegin(); ev != recent[r].rend(); ++ev) {
            out += "    "sv;
            append_recent_line(out, **ev);
            out += '\n';
        }
    }
    return out;
}

}  // namespace nbe::obs
