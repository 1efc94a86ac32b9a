// Fabric model parameters.
//
// Defaults are calibrated to the paper's testbed observables (Mellanox
// ConnectX QDR InfiniBand): a 1 MB put costs ~340 us end to end, small
// messages a few microseconds. See DESIGN.md §1 for the calibration notes.
#pragma once

#include <cstddef>

#include "net/fault.hpp"
#include "sim/time.hpp"

namespace nbe::net {

struct FabricConfig {
    /// Simulated ranks per physical node; ranks r with equal r / ranks_per_node
    /// share a node and communicate over the intranode channel.
    int ranks_per_node = 8;

    /// One-way internode wire latency per packet.
    sim::Duration inter_latency = sim::nanoseconds(1500);

    /// Internode link bandwidth in bytes/second (QDR IB effective ~3.1 GB/s;
    /// 1 MB / 3.1 GB/s + overheads ~= the paper's 340 us put).
    double inter_bandwidth = 3.1e9;

    /// One-way intranode (shared-memory) latency per packet.
    sim::Duration intra_latency = sim::nanoseconds(300);

    /// Intranode copy bandwidth in bytes/second.
    double intra_bandwidth = 8.0e9;

    /// Maximum in-flight internode packets per source NIC. Exhaustion stalls
    /// posting (the InfiniBand flow-control behaviour behind the paper's
    /// 512-process transaction flattening, Figure 12).
    int tx_credits = 64;

    /// Per-packet software overhead charged at the sender.
    sim::Duration sw_overhead = sim::nanoseconds(150);

    /// Wire size accounted for a packet with no payload.
    std::size_t control_bytes = 64;

    /// Per-packet header bytes added on top of the payload.
    std::size_t header_bytes = 64;

    /// Memory-registration cache entries per rank.
    std::size_t reg_cache_capacity = 64;

    /// Cost of pinning a buffer on a registration-cache miss.
    sim::Duration pin_cost = sim::microseconds(15);

    /// Buffers at or above this size require registration before an
    /// internode transfer.
    std::size_t pin_threshold = 16384;

    /// Deterministic fault injection (drops, duplicates, corruption, jitter,
    /// scripted outages). Off by default; requires `reliability`.
    FaultConfig fault{};

    /// Link-level reliable delivery (sequence numbers, cumulative ACKs,
    /// bounded retransmission). Off by default. Faults run only through
    /// it: the fabric rejects `fault.enabled` without it.
    ReliabilityConfig reliability{};
};

}  // namespace nbe::net
