// Job-level configuration: rank count, fabric parameters, and which of the
// paper's three evaluated RMA implementations the job runs.
#pragma once

#include <cstdint>

#include "check/check.hpp"
#include "net/config.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nbe::rt {

/// The three test series of the paper's evaluation (Section VIII).
enum class Mode {
    /// Vanilla MVAPICH 2-1.9 behaviour: lazy passive-target lock acquisition
    /// (the whole epoch degenerates to the unlock call) and epoch-closing
    /// transfer batching (wait for all internode targets, then all intranode
    /// targets). Blocking synchronizations only.
    Mvapich,
    /// The paper's redesigned engine with blocking synchronizations ("New").
    NewBlocking,
    /// The redesigned engine with the full nonblocking API
    /// ("New nonblocking").
    NewNonblocking,
};

[[nodiscard]] constexpr const char* to_string(Mode m) noexcept {
    switch (m) {
        case Mode::Mvapich: return "MVAPICH";
        case Mode::NewBlocking: return "New";
        case Mode::NewNonblocking: return "New nonblocking";
    }
    return "?";
}

struct JobConfig {
    int ranks = 2;
    Mode mode = Mode::NewNonblocking;
    net::FabricConfig fabric{};
    std::uint64_t seed = 0x6e6265ULL;  // "nbe"

    /// Carry no choice: the simulator always runs fibers over the calendar
    /// queue, and nothing reads these. They remain only because perfbench
    /// still assigns them, and go away with its next change.
    sim::Engine::Backend sim_backend = sim::Engine::Backend::Fibers;
    sim::EventQueue::Kind sim_queue = sim::EventQueue::Kind::Calendar;

    /// Online RMA semantics checking (nbe::check). Defaults from NBE_CHECK
    /// (off unless NBE_CHECK=1); set explicitly in tests. Ignored — always
    /// off — when the checker is compiled out (NBE_CHECK_ENABLED=0).
    bool check = check::env_enabled();

    /// CPU cost charged for each runtime/RMA API call (the paper's epsilon).
    sim::Duration call_overhead = sim::nanoseconds(200);

    /// Payload size at or above which two-sided messages use rendezvous.
    std::size_t eager_threshold = 16384;

    /// Observability (tracing + derived metrics). Defaults from the
    /// process-wide config so bench --trace/--metrics flags reach every
    /// job; off unless something opted in.
    obs::ObsConfig obs = obs::default_obs_config();
};

}  // namespace nbe::rt
