// Fabric model parameters.
//
// The timing constants are one calibration of the paper's testbed
// observables (Mellanox ConnectX QDR InfiniBand): a 1 MB put costs ~340 us
// end to end, small messages a few microseconds. See DESIGN.md §1 for the
// calibration notes. FabricConfig holds only what a caller varies: node
// width, NIC credits and fault injection.
#pragma once

#include <cstddef>

#include "net/fault.hpp"
#include "sim/time.hpp"

namespace nbe::net {

/// One-way internode wire latency per packet.
inline constexpr sim::Duration kInterLatency = sim::nanoseconds(1500);

/// Internode link bandwidth in bytes/second (QDR IB effective ~3.1 GB/s;
/// 1 MB / 3.1 GB/s + overheads ~= the paper's 340 us put).
inline constexpr double kInterBandwidth = 3.1e9;

/// One-way intranode (shared-memory) latency per packet.
inline constexpr sim::Duration kIntraLatency = sim::nanoseconds(300);

/// Intranode copy bandwidth in bytes/second.
inline constexpr double kIntraBandwidth = 8.0e9;

/// Per-packet software overhead charged at the sender.
inline constexpr sim::Duration kSwOverhead = sim::nanoseconds(150);

/// Wire size accounted for a packet with no payload.
inline constexpr std::size_t kControlBytes = 64;

/// Per-packet header bytes added on top of the payload.
inline constexpr std::size_t kHeaderBytes = 64;

/// Cost of pinning a buffer on a registration-cache miss.
inline constexpr sim::Duration kPinCost = sim::microseconds(15);

/// Buffers at or above this size require registration before an internode
/// transfer.
inline constexpr std::size_t kPinThreshold = 16384;

/// Memory-registration cache entries per rank (LRU).
inline constexpr std::size_t kRegCacheCapacity = 64;

/// Reliable delivery (runs iff FaultConfig::enabled): slack added on top of
/// the deterministic round-trip estimate before the first retransmission
/// fires. Must exceed FaultConfig::jitter_max.
inline constexpr sim::Duration kRtoMargin = sim::microseconds(25);

/// Multiplier applied to the margin after every timeout (exponential
/// backoff); the k-th retry waits kRtoMargin * kRtoBackoff^k past the RTT.
inline constexpr double kRtoBackoff = 2.0;

/// Retransmissions attempted before the link is declared failed.
inline constexpr int kMaxRetries = 8;

struct FabricConfig {
    /// Simulated ranks per physical node; ranks r with equal r / ranks_per_node
    /// share a node and communicate over the intranode channel.
    int ranks_per_node = 8;

    /// Maximum in-flight internode packets per source NIC. Exhaustion stalls
    /// posting (the InfiniBand flow-control behaviour behind the paper's
    /// 512-process transaction flattening, Figure 12).
    int tx_credits = 64;

    /// Deterministic fault injection (drops, duplicates, corruption, jitter,
    /// scripted outages) over the link-level reliable-delivery sublayer
    /// (sequence numbers, cumulative ACKs, bounded retransmission).
    /// `fault.enabled` turns both on; off by default, the lossless fabric
    /// needs no protocol.
    FaultConfig fault{};
};

}  // namespace nbe::net
