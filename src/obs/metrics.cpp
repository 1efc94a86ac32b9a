#include "obs/metrics.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace nbe::obs {

Histogram::Histogram(HistogramOptions opts) : opts_(opts) {
    bounds_.reserve(opts_.bucket_count);
    double b = opts_.first_bound;
    for (std::size_t i = 0; i < opts_.bucket_count; ++i) {
        bounds_.push_back(b);
        b *= opts_.growth;
    }
    buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) noexcept {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
}

double Histogram::quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(n_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) continue;
        const double before = static_cast<double>(seen);
        seen += buckets_[i];
        if (static_cast<double>(seen) < target) continue;
        // Interpolate inside bucket i. Clamp the bucket's range to the
        // recorded min/max so the estimate never leaves the data range.
        double lo = i == 0 ? min_ : bucket_bound(i - 1);
        double hi = bucket_bound(i);
        lo = std::max(lo, min_);
        hi = std::min(hi, max_);
        if (hi <= lo) return lo;
        const double frac =
            (target - before) / static_cast<double>(buckets_[i]);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    return max_;
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }
Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name,
                               HistogramOptions opts) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, Histogram(opts)).first;
    }
    return it->second;
}

void Registry::collect() {
    for (auto& fn : publishers_) fn(*this);
}

void Registry::write_json(std::ostream& os) {
    collect();
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        if (!first) os << ',';
        first = false;
        json_string(os, name);
        os << ':' << c.value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
        if (!first) os << ',';
        first = false;
        json_string(os, name);
        os << ':' << json_double(g.value());
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
        if (!first) os << ',';
        first = false;
        json_string(os, name);
        os << ":{\"count\":" << h.count()
           << ",\"sum\":" << json_double(h.sum())
           << ",\"min\":" << json_double(h.min())
           << ",\"max\":" << json_double(h.max())
           << ",\"mean\":" << json_double(h.mean())
           << ",\"stddev\":" << json_double(h.stddev()) << ",\"buckets\":[";
        bool bfirst = true;
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
            if (h.bucket(i) == 0) continue;
            if (!bfirst) os << ',';
            bfirst = false;
            const double le = h.bucket_bound(i);
            os << "{\"le\":";
            if (std::isinf(le)) {
                os << "\"inf\"";
            } else {
                os << json_double(le);
            }
            os << ",\"n\":" << h.bucket(i) << '}';
        }
        os << "]}";
    }
    os << "}}\n";
}

std::string Registry::json() {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

const Counter* Registry::find_counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}
const Histogram* Registry::find_histogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace nbe::obs
