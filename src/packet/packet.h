// Protocol-independent packet model.
//
// FlexNet devices are protocol-oblivious (the parse graph decides what a
// header is), so a packet is a stack of named headers, each a flat list of
// named integer fields — e.g. header "ipv4" with field "dst".  Standard
// header layouts (Ethernet, VLAN, IPv4, TCP, UDP, INT) are provided as
// builders; FlexBPF programs may define custom headers freely.
//
// Field values are uint64; wider fields (MACs, IPv6 pieces) are modeled as
// 64-bit values, which preserves match/action semantics without byte-level
// serialization (the simulator never puts packets on a wire).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "packet/intern.h"

namespace flexnet::packet {

struct Field {
  std::string name;
  Symbol sym = kInvalidSymbol;  // interned `name`
  std::uint64_t value = 0;
};

class Header {
 public:
  Header() = default;
  explicit Header(std::string name)
      : name_(std::move(name)), name_sym_(Intern(name_)) {}

  const std::string& name() const noexcept { return name_; }
  Symbol name_sym() const noexcept { return name_sym_; }

  std::optional<std::uint64_t> Get(std::string_view field) const noexcept;
  std::optional<std::uint64_t> Get(Symbol field) const noexcept;
  // Sets (adds if absent) a field.
  void Set(std::string_view field, std::uint64_t value);
  void Set(Symbol field, std::uint64_t value);
  bool Has(std::string_view field) const noexcept;

  const std::vector<Field>& fields() const noexcept { return fields_; }

 private:
  std::string name_;
  Symbol name_sym_ = kInvalidSymbol;
  std::vector<Field> fields_;
};

// One hop of the packet's journey, recorded for consistency analysis:
// experiment E1 asserts every packet saw exactly one program version
// end-to-end during a reconfiguration.
struct HopRecord {
  DeviceId device;
  std::uint64_t program_version = 0;
  SimTime at = 0;
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::uint64_t id, std::uint32_t size_bytes = 1000)
      : id_(id), size_bytes_(size_bytes) {}

  std::uint64_t id() const noexcept { return id_; }
  std::uint32_t size_bytes() const noexcept { return size_bytes_; }
  void set_size_bytes(std::uint32_t s) noexcept { size_bytes_ = s; }

  // --- Header stack (outermost first) ---
  Header& PushHeader(std::string name);
  // Removes the outermost header with this name; false if absent.
  bool PopHeader(std::string_view name);
  Header* FindHeader(std::string_view name) noexcept;
  const Header* FindHeader(std::string_view name) const noexcept;
  Header* FindHeader(Symbol name) noexcept;
  const Header* FindHeader(Symbol name) const noexcept;
  bool HasHeader(std::string_view name) const noexcept {
    return FindHeader(name) != nullptr;
  }
  const std::vector<Header>& headers() const noexcept { return headers_; }

  // "ipv4.dst" style dotted access used by match keys and FlexBPF.
  std::optional<std::uint64_t> GetField(std::string_view dotted) const;
  bool SetField(std::string_view dotted, std::uint64_t value);
  // Pre-resolved fast path: no string split, symbol compares only.  Invalid
  // refs (non-dotted source strings) behave like the string overloads.
  std::optional<std::uint64_t> GetField(const FieldRef& ref) const noexcept;
  bool SetField(const FieldRef& ref, std::uint64_t value);

  // --- Per-packet metadata (scratch space, reset at each device) ---
  std::optional<std::uint64_t> GetMeta(std::string_view key) const noexcept;
  std::optional<std::uint64_t> GetMeta(Symbol key) const noexcept;
  void SetMeta(std::string_view key, std::uint64_t value);
  void SetMeta(Symbol key, std::uint64_t value);
  void ClearMeta() { meta_.clear(); }

  // Order-sensitive digest of the packet's content — the header stack
  // (names, fields, values) plus metadata.  Differential tests compare it
  // to check two execution paths left a packet identical.  It is a 64-bit
  // hash, not an identity: nothing may treat equal signatures as equal
  // packets.
  std::uint64_t ContentSignature() const noexcept;

  // Order-sensitive hash of the header stack's *shape* alone — header
  // names, no fields or values.  Parse-graph walks and header lookups
  // branch only on which headers exist and in what order, so the megaflow
  // cache keys on this plus the masked values of the fields a resolution
  // actually consulted (and verifies those values on every probe).
  std::uint64_t StructureSignature() const noexcept;

  // --- Fate & trace ---
  bool dropped() const noexcept { return dropped_; }
  void MarkDropped(std::string reason);
  const std::string& drop_reason() const noexcept { return drop_reason_; }

  void RecordHop(DeviceId device, std::uint64_t program_version, SimTime at) {
    trace_.push_back(HopRecord{device, program_version, at});
  }
  const std::vector<HopRecord>& trace() const noexcept { return trace_; }

  SimTime created_at = 0;
  SimTime delivered_at = 0;
  std::uint32_t ingress_port = 0;
  std::uint32_t egress_port = 0;

  // Telemetry postcard id assigned at injection for sampled flows; 0 means
  // unsampled (the common case — the data path checks this one field and
  // does no other postcard work).  Travels with the packet across hops and
  // batches like the timing fields above.
  std::uint64_t postcard_id = 0;

  bool postcard_sampled() const noexcept { return postcard_id != 0; }

 private:
  std::uint64_t id_ = 0;
  std::uint32_t size_bytes_ = 1000;
  std::vector<Header> headers_;
  std::vector<Field> meta_;
  std::vector<HopRecord> trace_;
  bool dropped_ = false;
  std::string drop_reason_;
};

// --- Standard header builders ---

struct EthernetSpec {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t ethertype = 0x0800;  // IPv4 by default.
};

struct Ipv4Spec {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t proto = 6;  // TCP
  std::uint64_t ttl = 64;
  std::uint64_t dscp = 0;
};

struct TcpSpec {
  std::uint64_t sport = 0;
  std::uint64_t dport = 0;
  std::uint64_t flags = 0x10;  // ACK
  std::uint64_t seq = 0;
};

struct UdpSpec {
  std::uint64_t sport = 0;
  std::uint64_t dport = 0;
};

inline constexpr std::uint64_t kTcpFlagSyn = 0x02;
inline constexpr std::uint64_t kTcpFlagAck = 0x10;
inline constexpr std::uint64_t kTcpFlagFin = 0x01;
inline constexpr std::uint64_t kTcpFlagRst = 0x04;

void AddEthernet(Packet& p, const EthernetSpec& spec);
void AddVlan(Packet& p, std::uint64_t vlan_id);
void AddIpv4(Packet& p, const Ipv4Spec& spec);
void AddTcp(Packet& p, const TcpSpec& spec);
void AddUdp(Packet& p, const UdpSpec& spec);

// Convenience: Ethernet + IPv4 + TCP in one call.
Packet MakeTcpPacket(std::uint64_t id, const Ipv4Spec& ip, const TcpSpec& tcp,
                     std::uint32_t size_bytes = 1000);
Packet MakeUdpPacket(std::uint64_t id, const Ipv4Spec& ip, const UdpSpec& udp,
                     std::uint32_t size_bytes = 1000);

}  // namespace flexnet::packet
