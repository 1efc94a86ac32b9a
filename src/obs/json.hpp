// Minimal deterministic JSON emission helpers for the observability layer.
//
// Everything the obs subsystem exports (Chrome traces, metrics snapshots)
// must be byte-identical across identical seeded runs, so numbers are
// formatted with explicit, locale-independent conversions and maps are
// walked in sorted order by the callers.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

namespace nbe::obs {

/// Appends `s` as a JSON string literal (including the quotes). Strings
/// without a quote, backslash or control character are copied whole.
inline void append_json_string(std::string& out, std::string_view s) {
    const auto plain = [](char c) {
        return static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\';
    };
    out.push_back('"');
    if (std::all_of(s.begin(), s.end(), plain)) {
        out.append(s);
    } else {
        for (char c : s) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\n': out += "\\n"; break;
                case '\r': out += "\\r"; break;
                case '\t': out += "\\t"; break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof(buf), "\\u%04x",
                                      static_cast<unsigned>(c));
                        out += buf;
                    } else {
                        out.push_back(c);
                    }
            }
        }
    }
    out.push_back('"');
}

/// Writes `s` as a JSON string literal (including the quotes).
inline void json_string(std::ostream& os, std::string_view s) {
    std::string out;
    append_json_string(out, s);
    os << out;
}

/// Appends `v` in decimal (locale-independent).
inline void append_int(std::string& out, std::int64_t v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Room for usec_chars's output: at most a sign, 16 digits, '.', 3 digits.
inline constexpr std::size_t kMaxUsecChars = 24;

/// Writes virtual-time nanoseconds as the microsecond decimal Chrome's
/// trace format expects ("ts" is in microseconds) to `p` and returns the
/// end. Pure integer math so the output is bit-deterministic: 1234567 ns
/// -> "1234.567".
inline char* usec_chars(char* p, std::int64_t ns) {
    if (ns < 0) *p++ = '-';
    const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                     : static_cast<std::uint64_t>(ns);
    p = std::to_chars(p, p + 20, mag / 1000).ptr;
    const auto frac = static_cast<unsigned>(mag % 1000);
    p[0] = '.';
    p[1] = static_cast<char>('0' + frac / 100);
    p[2] = static_cast<char>('0' + frac / 10 % 10);
    p[3] = static_cast<char>('0' + frac % 10);
    return p + 4;
}

/// Appends usec_chars(ns).
inline void append_usec(std::string& out, std::int64_t ns) {
    char buf[kMaxUsecChars];
    out.append(buf, usec_chars(buf, ns));
}

/// Formats a double deterministically (shortest round-trip is overkill;
/// %.9g is stable, compact and locale-independent for our value ranges).
inline std::string json_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace nbe::obs
