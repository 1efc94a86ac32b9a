#include "trace_check.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

namespace perfbench {

namespace {

/// Streaming recursive-descent JSON syntax checker; reads the file in
/// chunks so a large trace never sits in memory whole.
class Checker {
public:
    explicit Checker(std::FILE* f) : f_(f) {}

    /// The whole input must be one object; returns the element count of its
    /// "traceEvents" array, or -1.
    long trace_events() {
        if (!value(0, true) || (skip_ws(), peek() != EOF)) return -1;
        return events_;
    }

private:
    static constexpr int kMaxDepth = 64;

    int peek() {
        if (pos_ == len_) {
            len_ = std::fread(buf_, 1, sizeof buf_, f_);
            pos_ = 0;
            if (len_ == 0) return EOF;
        }
        return static_cast<unsigned char>(buf_[pos_]);
    }
    int get() {
        const int c = peek();
        if (c != EOF) ++pos_;
        return c;
    }
    void skip_ws() {
        for (int c = peek(); c == ' ' || c == '\n' || c == '\r' || c == '\t'; c = peek()) get();
    }
    bool literal(const char* word) {
        for (const char* w = word; *w; ++w) {
            if (get() != *w) return false;
        }
        return true;
    }
    bool string(std::string* out) {
        if (get() != '"') return false;
        for (;;) {
            int c = get();
            if (c == EOF || c < 0x20) return false;
            if (c == '"') return true;
            if (c == '\\') {
                c = get();
                if (c == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (!std::isxdigit(get())) return false;
                    }
                } else if (c == EOF || !std::strchr("\"\\/bfnrt", c)) {
                    return false;
                }
            }
            if (out && out->size() < 32) out->push_back(static_cast<char>(c));
        }
    }
    bool number() {
        bool digits = false;
        if (peek() == '-') get();
        for (int c = peek(); c != EOF && std::strchr("0123456789.eE+-", c); c = peek()) {
            digits |= std::isdigit(c) != 0;
            get();
        }
        return digits;
    }
    /// `top`: the document's root object, whose "traceEvents" is counted.
    bool value(int depth, bool top = false) {
        if (depth > kMaxDepth) return false;
        skip_ws();
        const int c = peek();
        if (c == '{') {
            get();
            skip_ws();
            if (peek() == '}') return get(), true;
            for (;;) {
                skip_ws();
                std::string key;
                if (!string(&key)) return false;
                skip_ws();
                if (get() != ':') return false;
                if (top && key == "traceEvents") {
                    skip_ws();
                    if (peek() != '[') return false;
                    if (!array(depth + 1, &events_)) return false;
                } else if (!value(depth + 1)) {
                    return false;
                }
                skip_ws();
                const int d = get();
                if (d == '}') return true;
                if (d != ',') return false;
            }
        }
        if (top) return false;
        if (c == '[') return array(depth, nullptr);
        if (c == '"') return string(nullptr);
        if (c == 't') return literal("true");
        if (c == 'f') return literal("false");
        if (c == 'n') return literal("null");
        return number();
    }
    bool array(int depth, long* count) {
        get();  // '['
        skip_ws();
        if (peek() == ']') return get(), true;
        for (;;) {
            if (!value(depth + 1)) return false;
            if (count) ++*count;
            skip_ws();
            const int d = get();
            if (d == ']') return true;
            if (d != ',') return false;
        }
    }

    std::FILE* f_;
    char buf_[1 << 16];
    std::size_t pos_ = 0, len_ = 0;
    long events_ = 0;
};

}  // namespace

long trace_event_count(const std::string& path) {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                      &std::fclose);
    if (!f) return -1;
    auto checker = std::make_unique<Checker>(f.get());
    return checker->trace_events();
}

}  // namespace perfbench
