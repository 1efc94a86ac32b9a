// Deterministic fault injection for the simulated fabric.
//
// Faults are drawn from a dedicated sim::Xoshiro256 stream seeded from
// FaultConfig::seed, independent of the application RNGs. Because the event
// loop executes strictly serially, the draw sequence — and therefore every
// injected drop, duplicate, corruption and jitter value — is a pure function
// of (workload, FaultConfig), making faulty runs bit-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace nbe::net {

/// A scripted outage: wire transmissions on matching links that start inside
/// [from, until) are lost. `src`/`dst` of -1 match any rank. Outages only
/// *drop* packets; whether the link is ultimately declared failed depends on
/// the retransmission budget outlasting the window or not.
struct LinkDownWindow {
    Rank src = -1;
    Rank dst = -1;
    sim::Time from = 0;
    sim::Time until = 0;

    [[nodiscard]] bool covers(Rank s, Rank d, sim::Time t) const noexcept {
        return (src < 0 || src == s) && (dst < 0 || dst == d) && t >= from &&
               t < until;
    }
};

struct FaultConfig {
    /// Master switch for faults and the reliable sublayer that recovers
    /// from them; when false no RNG is consulted. Enabled with zero
    /// probabilities and no outages, the sublayer keeps the lossless timing
    /// model bit-for-bit.
    bool enabled = false;

    /// Per-wire-transmission probabilities (retransmissions re-roll).
    double drop_prob = 0.0;
    double dup_prob = 0.0;
    double corrupt_prob = 0.0;

    /// Extra delivery latency drawn uniformly from [0, jitter_max] per
    /// transmission. Keep below kRtoMargin (net/config.hpp) to avoid
    /// spurious retransmissions.
    sim::Duration jitter_max = 0;

    /// Seed of the dedicated fault stream.
    std::uint64_t seed = 0x6661756c74ULL;  // "fault"

    /// Scripted outage windows, checked at wire-transmission time.
    std::vector<LinkDownWindow> down;

    [[nodiscard]] bool down_at(Rank s, Rank d, sim::Time t) const noexcept {
        for (const auto& w : down) {
            if (w.covers(s, d, t)) return true;
        }
        return false;
    }
};

}  // namespace nbe::net
