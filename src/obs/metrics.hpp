// Metrics registry: named counters, gauges and histograms with exponential
// buckets, unifying the previously scattered per-subsystem stats structs
// (RankStats, Fabric::Stats, RmaStats) behind one queryable interface.
//
// Hot paths never pay for the registry: subsystems either observe into a
// cached Histogram* (only when obs is active for the job) or register a
// *publisher* — a callback that copies their native stats struct into the
// registry when a snapshot is taken. Snapshot export is deterministic:
// metrics are stored in sorted maps and numbers are formatted with the
// fixed conversions in json.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace nbe::obs {

/// Monotonic (or pull-published) integer metric.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { v_ += n; }
    /// Pull-publishing: overwrite with the authoritative subsystem value.
    void set(std::uint64_t v) noexcept { v_ = v; }
    [[nodiscard]] std::uint64_t value() const noexcept { return v_; }

private:
    std::uint64_t v_ = 0;
};

/// Point-in-time floating-point metric.
class Gauge {
public:
    void set(double v) noexcept { v_ = v; }
    void add(double d) noexcept { v_ += d; }
    [[nodiscard]] double value() const noexcept { return v_; }

private:
    double v_ = 0.0;
};

/// Exponential bucket layout: bucket i counts observations in
/// (bound[i-1], bound[i]] with bound[i] = first_bound * growth^i; one
/// overflow bucket catches everything above the last bound.
struct HistogramOptions {
    double first_bound = 1000.0;  ///< default: 1 us when observing ns
    double growth = 2.0;
    std::size_t bucket_count = 32;  ///< finite buckets (overflow excluded)
};

/// Distribution metric: exponential buckets plus Welford-style running
/// mean/variance and min/max (absorbing the old sim::Accumulator).
class Histogram {
public:
    explicit Histogram(HistogramOptions opts = {});

    void observe(double x) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
    [[nodiscard]] double variance() const noexcept {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }
    [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

    /// Finite buckets + 1 overflow bucket.
    [[nodiscard]] std::size_t bucket_count() const noexcept {
        return bounds_.size() + 1;
    }
    /// Upper bound of bucket `i`; +inf for the overflow bucket.
    [[nodiscard]] double bucket_bound(std::size_t i) const noexcept {
        return i < bounds_.size() ? bounds_[i]
                                  : std::numeric_limits<double>::infinity();
    }
    [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
        return buckets_[i];
    }

    /// Bucket-interpolated quantile estimate, q in [0, 1]. Exact at the
    /// recorded min/max ends; linear within a bucket.
    [[nodiscard]] double quantile(double q) const noexcept;

private:
    HistogramOptions opts_;
    std::vector<double> bounds_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/// Name -> metric registry with pull publishers and deterministic JSON
/// snapshot export.
class Registry {
public:
    using Publisher = std::function<void(Registry&)>;

    /// Finds or creates. Returned references stay valid for the registry's
    /// lifetime (node-based maps).
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name, HistogramOptions opts = {});

    /// Registers a callback run by collect(); publishers copy subsystem
    /// stats structs into the registry so hot paths never touch it.
    void add_publisher(Publisher fn) { publishers_.push_back(std::move(fn)); }

    /// Runs all publishers (refreshing pull-published metrics).
    void collect();

    /// collect() + deterministic JSON snapshot:
    ///   {"counters":{...},"gauges":{...},"histograms":{name:
    ///     {"count","sum","min","max","mean","stddev",
    ///      "buckets":[{"le":bound,"n":count},...]}}}
    /// Zero buckets are elided from the bucket list.
    void write_json(std::ostream& os);
    [[nodiscard]] std::string json();

    // Lookup without creation (tests / harness queries).
    [[nodiscard]] const Counter* find_counter(const std::string& name) const;
    [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
    std::vector<Publisher> publishers_;
};

}  // namespace nbe::obs
