#include "packet/flow.h"

#include <sstream>

namespace flexnet::packet {

namespace {
std::uint64_t Mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}
}  // namespace

std::uint64_t FlowKey::Hash() const noexcept {
  std::uint64_t h = 0x51afd7ed558ccd11ULL;
  h = Mix(h, src_ip);
  h = Mix(h, dst_ip);
  h = Mix(h, proto);
  h = Mix(h, src_port);
  h = Mix(h, dst_port);
  return h;
}

std::string FlowKey::ToText() const {
  std::ostringstream out;
  out << src_ip << ":" << src_port << "->" << dst_ip << ":" << dst_port
      << "/" << proto;
  return out.str();
}

std::optional<FlowKey> ExtractFlowKey(const Packet& p) {
  // Interned once; per-packet extraction is symbol compares only.
  static const Symbol kIpv4 = Intern("ipv4");
  static const Symbol kTcp = Intern("tcp");
  static const Symbol kUdp = Intern("udp");
  static const Symbol kSrc = Intern("src");
  static const Symbol kDst = Intern("dst");
  static const Symbol kProto = Intern("proto");
  static const Symbol kSport = Intern("sport");
  static const Symbol kDport = Intern("dport");
  const Header* ip = p.FindHeader(kIpv4);
  if (ip == nullptr) return std::nullopt;
  FlowKey key;
  key.src_ip = ip->Get(kSrc).value_or(0);
  key.dst_ip = ip->Get(kDst).value_or(0);
  key.proto = ip->Get(kProto).value_or(0);
  if (const Header* tcp = p.FindHeader(kTcp)) {
    key.src_port = tcp->Get(kSport).value_or(0);
    key.dst_port = tcp->Get(kDport).value_or(0);
  } else if (const Header* udp = p.FindHeader(kUdp)) {
    key.src_port = udp->Get(kSport).value_or(0);
    key.dst_port = udp->Get(kDport).value_or(0);
  }
  return key;
}

}  // namespace flexnet::packet
