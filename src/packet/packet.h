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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"
#include "packet/intern.h"
#include "packet/small_vec.h"

namespace flexnet::packet {

struct Field {
  Symbol sym = kInvalidSymbol;  // the field's name, through SymbolName()
  std::uint64_t value = 0;
};

// Inline capacities of the per-packet arrays (see SmallVec): a header's
// fields, the header stack, the metadata fields and the hop trace.  The
// standard builders stay within them (IPv4 has five fields; a VLAN-tagged
// TCP packet has four headers; the E14 line is seven hops); anything
// larger spills to the heap and still works.
inline constexpr std::size_t kInlineFields = 6;
inline constexpr std::size_t kInlineHeaders = 4;
inline constexpr std::size_t kInlineMeta = 4;
inline constexpr std::size_t kInlineHops = 8;

class Header {
 public:
  explicit Header(Symbol name) noexcept : name_sym_(name) {}

  const std::string& name() const { return SymbolName(name_sym_); }
  Symbol name_sym() const noexcept { return name_sym_; }

  std::optional<std::uint64_t> Get(Symbol field) const noexcept;
  // Sets (adds if absent) a field.
  void Set(Symbol field, std::uint64_t value);
  // String overloads, for builders and tests: Get() and Has() never intern
  // (a name never interned cannot be a field), Set() interns.
  std::optional<std::uint64_t> Get(std::string_view field) const noexcept;
  void Set(std::string_view field, std::uint64_t value);
  bool Has(std::string_view field) const noexcept;

  const SmallVec<Field, kInlineFields>& fields() const noexcept {
    return fields_;
  }

 private:
  Symbol name_sym_ = kInvalidSymbol;
  SmallVec<Field, kInlineFields> fields_;
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
  Header& PushHeader(Symbol name);
  // Removes the outermost header with this name; false if absent.
  bool PopHeader(Symbol name);
  Header* FindHeader(Symbol name) noexcept;
  const Header* FindHeader(Symbol name) const noexcept;
  const SmallVec<Header, kInlineHeaders>& headers() const noexcept {
    return headers_;
  }

  // "ipv4.dst" style dotted access used by match keys and FlexBPF.
  // Pre-resolved: symbol compares only.  Invalid refs (non-dotted source
  // strings) read as absent and write nowhere.
  std::optional<std::uint64_t> GetField(const FieldRef& ref) const noexcept;
  bool SetField(const FieldRef& ref, std::uint64_t value);

  // --- Per-packet metadata (scratch space, reset at each device) ---
  std::optional<std::uint64_t> GetMeta(Symbol key) const noexcept;
  void SetMeta(Symbol key, std::uint64_t value);
  void ClearMeta() { meta_.clear(); }
  const SmallVec<Field, kInlineMeta>& meta() const noexcept { return meta_; }

  // String overloads, for builders and tests only: each costs an interner
  // probe, so no per-packet path calls them.  Lookups never intern — a
  // name never interned reads as absent — while writes that add a header,
  // field or meta key intern its name.
  Header& PushHeader(std::string_view name) { return PushHeader(Intern(name)); }
  bool PopHeader(std::string_view name);
  Header* FindHeader(std::string_view name) noexcept;
  const Header* FindHeader(std::string_view name) const noexcept;
  bool HasHeader(std::string_view name) const noexcept {
    return FindHeader(name) != nullptr;
  }
  std::optional<std::uint64_t> GetField(std::string_view dotted) const noexcept;
  bool SetField(std::string_view dotted, std::uint64_t value);
  std::optional<std::uint64_t> GetMeta(std::string_view key) const noexcept;
  void SetMeta(std::string_view key, std::uint64_t value) {
    SetMeta(Intern(key), value);
  }

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
  const SmallVec<HopRecord, kInlineHops>& trace() const noexcept {
    return trace_;
  }

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
  bool dropped_ = false;
  SmallVec<Header, kInlineHeaders> headers_;
  SmallVec<Field, kInlineMeta> meta_;
  SmallVec<HopRecord, kInlineHops> trace_;
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
