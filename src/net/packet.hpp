// Wire-level packet for the simulated fabric.
//
// The fabric is deliberately payload-agnostic: `kind` and `header` are
// interpreted by the layer above (two-sided runtime or RMA engine). Bulk
// data rides in `payload` — a refcounted immutable buffer, so wire copies,
// fault-injection duplicates and retransmissions share one allocation;
// control packets leave it empty and are accounted at a fixed small wire
// size, mirroring the 64-bit notification packets the paper's design
// exchanges between windows.
//
// A Packet is only what the upper layers exchange: routing fields, header
// and payload, 80 bytes, a plain copyable value whose copy bumps the
// payload's refcount. What only the fabric reads travels beside it: the
// source-side completion callbacks are a Completion handed to
// Fabric::send, which the fabric boxes in a pooled record only when one is
// set, and the reliable sublayer's sequence number and corruption mark sit
// in that sublayer's own pooled wire copy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/payload.hpp"
#include "net/status.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace nbe::net {

using Rank = int;

struct Packet {
    Rank src = -1;
    Rank dst = -1;
    std::uint32_t kind = 0;                 ///< Upper-layer discriminator.
    std::array<std::uint64_t, 6> header{};  ///< Small control fields.
    PayloadRef payload;                     ///< Bulk data (may be empty).
};

// A lossless wire frame (Fabric::Frame) is 40 bytes: it holds a control
// packet's routing fields and header words 0 (as 32 bits) and 1, and boxes
// any other Packet whole. A fence puts nranks^2 frames on the wire at once.
static_assert(sizeof(void*) != 8 || sizeof(Packet) <= 80, "Packet grew");

/// Source-side completion of one send. At most one of the two fires, once
/// per packet however many times its frame crosses the wire.
struct Completion {
    /// Invoked once the destination has the packet and the (simulated)
    /// hardware ack has returned — the moment an RDMA initiator would see
    /// a work completion for this transfer.
    sim::SmallFn<void(sim::Time acked_at)> on_acked = nullptr;

    /// Invoked if the fabric gives up on delivery (link declared failed,
    /// or a send posted on an already-failed link). Exactly one of
    /// on_acked / on_error fires per packet when the reliability sublayer
    /// is enabled.
    sim::SmallFn<void(Status)> on_error = nullptr;
};

}  // namespace nbe::net
