// Flow identification: canonical 5-tuple keys and hashing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "packet/packet.h"

namespace flexnet::packet {

struct FlowKey {
  std::uint64_t src_ip = 0;
  std::uint64_t dst_ip = 0;
  std::uint64_t proto = 0;
  std::uint64_t src_port = 0;
  std::uint64_t dst_port = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;

  // Stable 64-bit hash (used for ECMP and stateful-table indexing).
  std::uint64_t Hash() const noexcept;

  std::string ToText() const;
};

// Extracts the 5-tuple; nullopt if the packet has no IPv4 header.  Ports are
// zero for non-TCP/UDP traffic.
std::optional<FlowKey> ExtractFlowKey(const Packet& p);

}  // namespace flexnet::packet

namespace std {
template <>
struct hash<flexnet::packet::FlowKey> {
  size_t operator()(const flexnet::packet::FlowKey& k) const noexcept {
    return static_cast<size_t>(k.Hash());
  }
};
}  // namespace std
