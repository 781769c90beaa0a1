#include "packet/packet.h"

#include <algorithm>

namespace flexnet::packet {

namespace {
std::uint64_t Mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}
}  // namespace

std::optional<std::uint64_t> Header::Get(Symbol field) const noexcept {
  for (const Field& f : fields_) {
    if (f.sym == field) return f.value;
  }
  return std::nullopt;
}

void Header::Set(Symbol field, std::uint64_t value) {
  for (Field& f : fields_) {
    if (f.sym == field) {
      f.value = value;
      return;
    }
  }
  fields_.push_back(Field{field, value});
}

std::optional<std::uint64_t> Header::Get(std::string_view field) const noexcept {
  const Symbol sym = FindSymbol(field);
  if (sym == kInvalidSymbol) return std::nullopt;
  return Get(sym);
}

void Header::Set(std::string_view field, std::uint64_t value) {
  Set(Intern(field), value);
}

bool Header::Has(std::string_view field) const noexcept {
  return Get(field).has_value();
}

Header& Packet::PushHeader(Symbol name) {
  return headers_.emplace_back(name);
}

bool Packet::PopHeader(Symbol name) {
  for (const Header* h = headers_.begin(); h != headers_.end(); ++h) {
    if (h->name_sym() == name) {
      headers_.erase(h);
      return true;
    }
  }
  return false;
}

Header* Packet::FindHeader(Symbol name) noexcept {
  for (Header& h : headers_) {
    if (h.name_sym() == name) return &h;
  }
  return nullptr;
}

const Header* Packet::FindHeader(Symbol name) const noexcept {
  for (const Header& h : headers_) {
    if (h.name_sym() == name) return &h;
  }
  return nullptr;
}

std::optional<std::uint64_t> Packet::GetField(const FieldRef& ref) const noexcept {
  if (!ref.valid()) return std::nullopt;
  if (ref.is_meta()) return GetMeta(ref.field);
  const Header* h = FindHeader(ref.header);
  if (h == nullptr) return std::nullopt;
  return h->Get(ref.field);
}

bool Packet::SetField(const FieldRef& ref, std::uint64_t value) {
  if (!ref.valid()) return false;
  if (ref.is_meta()) {
    SetMeta(ref.field, value);
    return true;
  }
  Header* h = FindHeader(ref.header);
  if (h == nullptr) return false;
  h->Set(ref.field, value);
  return true;
}

std::optional<std::uint64_t> Packet::GetMeta(Symbol key) const noexcept {
  for (const Field& f : meta_) {
    if (f.sym == key) return f.value;
  }
  return std::nullopt;
}

void Packet::SetMeta(Symbol key, std::uint64_t value) {
  for (Field& f : meta_) {
    if (f.sym == key) {
      f.value = value;
      return;
    }
  }
  meta_.push_back(Field{key, value});
}

bool Packet::PopHeader(std::string_view name) {
  const Symbol sym = FindSymbol(name);
  return sym != kInvalidSymbol && PopHeader(sym);
}

Header* Packet::FindHeader(std::string_view name) noexcept {
  const Symbol sym = FindSymbol(name);
  return sym == kInvalidSymbol ? nullptr : FindHeader(sym);
}

const Header* Packet::FindHeader(std::string_view name) const noexcept {
  const Symbol sym = FindSymbol(name);
  return sym == kInvalidSymbol ? nullptr : FindHeader(sym);
}

std::optional<std::uint64_t> Packet::GetField(
    std::string_view dotted) const noexcept {
  const std::size_t dot = dotted.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const std::string_view header = dotted.substr(0, dot);
  const std::string_view field = dotted.substr(dot + 1);
  if (header == "meta") return GetMeta(field);
  const Header* h = FindHeader(header);
  if (h == nullptr) return std::nullopt;
  return h->Get(field);
}

bool Packet::SetField(std::string_view dotted, std::uint64_t value) {
  const std::size_t dot = dotted.find('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view header = dotted.substr(0, dot);
  const std::string_view field = dotted.substr(dot + 1);
  if (header == "meta") {
    SetMeta(field, value);
    return true;
  }
  Header* h = FindHeader(header);
  if (h == nullptr) return false;
  h->Set(field, value);
  return true;
}

std::optional<std::uint64_t> Packet::GetMeta(
    std::string_view key) const noexcept {
  const Symbol sym = FindSymbol(key);
  if (sym == kInvalidSymbol) return std::nullopt;
  return GetMeta(sym);
}

std::uint64_t Packet::ContentSignature() const noexcept {
  std::uint64_t h = 0xc6a4a7935bd1e995ULL;
  for (const Header& hd : headers_) {
    h = Mix(h, static_cast<std::uint64_t>(hd.name_sym()) + 1);
    for (const Field& f : hd.fields()) {
      h = Mix(h, static_cast<std::uint64_t>(f.sym) + 1);
      h = Mix(h, f.value);
    }
  }
  h = Mix(h, 0x5bd1e9955bd1e995ULL);  // header/meta boundary marker
  for (const Field& f : meta_) {
    h = Mix(h, static_cast<std::uint64_t>(f.sym) + 1);
    h = Mix(h, f.value);
  }
  return h;
}

std::uint64_t Packet::StructureSignature() const noexcept {
  std::uint64_t h = 0x9ddfea08eb382d69ULL;
  for (const Header& hd : headers_) {
    h = Mix(h, static_cast<std::uint64_t>(hd.name_sym()) + 1);
  }
  return h;
}

void Packet::MarkDropped(std::string reason) {
  dropped_ = true;
  drop_reason_ = std::move(reason);
}

namespace {

// The standard builders' names, interned once: building a packet writes
// symbols only.
struct StandardSymbols {
  Symbol eth = Intern("eth");
  Symbol vlan = Intern("vlan");
  Symbol ipv4 = Intern("ipv4");
  Symbol tcp = Intern("tcp");
  Symbol udp = Intern("udp");
  Symbol src = Intern("src");
  Symbol dst = Intern("dst");
  Symbol type = Intern("type");
  Symbol id = Intern("id");
  Symbol proto = Intern("proto");
  Symbol ttl = Intern("ttl");
  Symbol dscp = Intern("dscp");
  Symbol sport = Intern("sport");
  Symbol dport = Intern("dport");
  Symbol flags = Intern("flags");
  Symbol seq = Intern("seq");
};

const StandardSymbols& Std() {
  static const StandardSymbols syms;
  return syms;
}

}  // namespace

void AddEthernet(Packet& p, const EthernetSpec& spec) {
  const StandardSymbols& s = Std();
  Header& h = p.PushHeader(s.eth);
  h.Set(s.src, spec.src);
  h.Set(s.dst, spec.dst);
  h.Set(s.type, spec.ethertype);
}

void AddVlan(Packet& p, std::uint64_t vlan_id) {
  const StandardSymbols& s = Std();
  p.PushHeader(s.vlan).Set(s.id, vlan_id);
}

void AddIpv4(Packet& p, const Ipv4Spec& spec) {
  const StandardSymbols& s = Std();
  Header& h = p.PushHeader(s.ipv4);
  h.Set(s.src, spec.src);
  h.Set(s.dst, spec.dst);
  h.Set(s.proto, spec.proto);
  h.Set(s.ttl, spec.ttl);
  h.Set(s.dscp, spec.dscp);
}

void AddTcp(Packet& p, const TcpSpec& spec) {
  const StandardSymbols& s = Std();
  Header& h = p.PushHeader(s.tcp);
  h.Set(s.sport, spec.sport);
  h.Set(s.dport, spec.dport);
  h.Set(s.flags, spec.flags);
  h.Set(s.seq, spec.seq);
}

void AddUdp(Packet& p, const UdpSpec& spec) {
  const StandardSymbols& s = Std();
  Header& h = p.PushHeader(s.udp);
  h.Set(s.sport, spec.sport);
  h.Set(s.dport, spec.dport);
}

Packet MakeTcpPacket(std::uint64_t id, const Ipv4Spec& ip, const TcpSpec& tcp,
                     std::uint32_t size_bytes) {
  Packet p(id, size_bytes);
  AddEthernet(p, EthernetSpec{});
  Ipv4Spec ip_with_proto = ip;
  ip_with_proto.proto = 6;
  AddIpv4(p, ip_with_proto);
  AddTcp(p, tcp);
  return p;
}

Packet MakeUdpPacket(std::uint64_t id, const Ipv4Spec& ip, const UdpSpec& udp,
                     std::uint32_t size_bytes) {
  Packet p(id, size_bytes);
  AddEthernet(p, EthernetSpec{});
  Ipv4Spec ip_with_proto = ip;
  ip_with_proto.proto = 17;
  AddIpv4(p, ip_with_proto);
  AddUdp(p, udp);
  return p;
}

}  // namespace flexnet::packet
