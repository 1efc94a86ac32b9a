// Per-job observability context: one Tracer + one metrics Registry, owned
// by the rt::World and handed (as a pointer) to the fabric and the RMA
// core. Disabled by default; a job opts in through JobConfig::obs or a
// bench opts in process-wide through default_obs_config() (set by the
// --trace/--metrics flags in bench_common.hpp).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace nbe::obs {

struct ObsConfig {
    /// Record trace events (tracer hooks otherwise cost one branch).
    bool trace = false;
    /// Maintain live derived metrics (per-epoch histograms). Pull-published
    /// counters are always reachable through the registry snapshot.
    bool metrics = false;
};

class Obs {
public:
    Obs(sim::Engine& engine, const ObsConfig& cfg)
        : tracer_(engine, cfg.trace),
          metrics_enabled_(cfg.metrics) {}

    Obs(const Obs&) = delete;
    Obs& operator=(const Obs&) = delete;

    [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
    [[nodiscard]] Registry& metrics() noexcept { return metrics_; }
    [[nodiscard]] bool metrics_enabled() const noexcept {
        return metrics_enabled_;
    }
    /// True when any live instrumentation (tracing or derived metrics)
    /// should run; hot paths use this single check.
    [[nodiscard]] bool active() const noexcept {
        return metrics_enabled_ || tracer_.enabled();
    }

private:
    Tracer tracer_;
    Registry metrics_;
    bool metrics_enabled_ = false;
};

/// Process-wide default ObsConfig; JobConfig's obs member initializes from
/// it, so bench flags reach every job the process creates.
[[nodiscard]] ObsConfig& default_obs_config();

/// Process-wide export destinations (set by --trace= / --metrics=). The
/// first completed job writes the exact paths; later jobs in the same
/// process get a ".N" suffix before the extension (out.json, out.2.json,
/// ...), since benches typically run one job per mode.
struct ExportConfig {
    std::string trace_path;
    std::string metrics_path;
};
[[nodiscard]] ExportConfig& default_export_config();

/// Writes the trace/metrics files for one finished job if export paths are
/// configured and the corresponding instrumentation was enabled. Called by
/// Job teardown; harmless no-op otherwise. Returns the paths that could not
/// be written (empty on success).
[[nodiscard]] std::vector<std::string> maybe_export(Obs& obs);

/// "out.json" -> "out.json" (index 1), "out.2.json" (index 2), ...
[[nodiscard]] std::string numbered_path(const std::string& path, int index);

}  // namespace nbe::obs
