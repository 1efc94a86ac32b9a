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
    /// Master switch; when false no RNG is consulted. Faults need the
    /// reliability sublayer (ReliabilityConfig::enabled): the fabric
    /// rejects a config that enables them without it.
    bool enabled = false;

    /// Per-wire-transmission probabilities (retransmissions re-roll).
    double drop_prob = 0.0;
    double dup_prob = 0.0;
    double corrupt_prob = 0.0;

    /// Extra delivery latency drawn uniformly from [0, jitter_max] per
    /// transmission. Keep below ReliabilityConfig::rto_margin to avoid
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

/// Link-level reliable-delivery protocol parameters: per-(src,dst) sequence
/// numbers, cumulative ACKs, timeout-driven retransmission with exponential
/// backoff and a bounded retry budget.
struct ReliabilityConfig {
    /// Enables the sublayer. Off by default: the lossless fabric needs no
    /// protocol. Required for fault injection. With faults off the
    /// sublayer keeps the lossless timing model bit-for-bit.
    bool enabled = false;

    /// Slack added on top of the deterministic round-trip estimate before
    /// the first retransmission fires. Must exceed FaultConfig::jitter_max.
    sim::Duration rto_margin = sim::microseconds(25);

    /// Multiplier applied to the margin after every timeout (exponential
    /// backoff); the k-th retry waits rto_margin * backoff^k past the RTT.
    double backoff = 2.0;

    /// Retransmissions attempted before the link is declared failed.
    int max_retries = 8;
};

}  // namespace nbe::net
