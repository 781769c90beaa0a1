// String interning for the packet hot path.
//
// Every per-packet operation in FlexNet ultimately names headers and fields
// with dotted strings ("ipv4.dst").  Parsing and comparing those strings per
// packet is the single biggest tax on the simulated data plane, so names are
// interned once into dense 32-bit symbols: match keys, action operands, and
// FlexBPF instructions resolve their paths to (header, field) symbol pairs
// at table-build/program-load time, and the packet layer compares symbols —
// two integer compares — instead of strings.
//
// The interner is process-wide and append-only (symbols are never recycled),
// which keeps SymbolName() references stable for the process lifetime.  Like
// the rest of the simulator it is single-threaded by design.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace flexnet::packet {

using Symbol = std::uint32_t;
inline constexpr Symbol kInvalidSymbol = 0xffffffffu;

// Returns the unique symbol for `name`, creating it on first sight.
Symbol Intern(std::string_view name);

// Looks up without creating; kInvalidSymbol when never interned.
Symbol FindSymbol(std::string_view name) noexcept;

// The string a symbol was created from.  Precondition: a valid symbol
// returned by Intern().
const std::string& SymbolName(Symbol sym);

// The reserved "meta" pseudo-header routing to per-packet metadata.
Symbol MetaSymbol() noexcept;

// A pre-resolved dotted field path: "ipv4.dst" -> (sym("ipv4"), sym("dst")).
struct FieldRef {
  Symbol header = kInvalidSymbol;
  Symbol field = kInvalidSymbol;

  bool valid() const noexcept {
    return header != kInvalidSymbol && field != kInvalidSymbol;
  }
  bool is_meta() const noexcept { return header == MetaSymbol(); }
  friend bool operator==(const FieldRef&, const FieldRef&) = default;
};

// Splits and interns a dotted path.  Paths without a dot yield an invalid
// ref, mirroring Packet::GetField's nullopt for non-dotted strings.
FieldRef InternFieldPath(std::string_view dotted);

// A dotted field path that carries both its text (for printing, diffing and
// the patch DSL) and its interned FieldRef (for per-packet access).  Drop-in
// for the `std::string field` members it replaces: constructible from string
// literals, implicitly convertible back to const std::string&, and equality
// compares the text.
class FieldPath {
 public:
  FieldPath() = default;
  FieldPath(std::string dotted)  // NOLINT(google-explicit-constructor)
      : text_(std::move(dotted)), ref_(InternFieldPath(text_)) {}
  FieldPath(std::string_view dotted)  // NOLINT(google-explicit-constructor)
      : FieldPath(std::string(dotted)) {}
  FieldPath(const char* dotted)  // NOLINT(google-explicit-constructor)
      : FieldPath(std::string(dotted)) {}

  const std::string& text() const noexcept { return text_; }
  operator const std::string&() const noexcept {  // NOLINT
    return text_;
  }
  const FieldRef& ref() const noexcept { return ref_; }
  bool empty() const noexcept { return text_.empty(); }

  friend bool operator==(const FieldPath& a, const FieldPath& b) {
    return a.text_ == b.text_;
  }

 private:
  std::string text_;
  FieldRef ref_;
};

// One name (a header, a meta key) that carries both its text (for
// printing and diffing) and its interned symbol (for per-packet access) —
// FieldPath's undotted sibling.  Equality compares the text.
class InternedName {
 public:
  InternedName() : InternedName(std::string()) {}
  InternedName(std::string name)  // NOLINT(google-explicit-constructor)
      : text_(std::move(name)), sym_(Intern(text_)) {}
  InternedName(const char* name)  // NOLINT(google-explicit-constructor)
      : InternedName(std::string(name)) {}

  const std::string& text() const noexcept { return text_; }
  Symbol sym() const noexcept { return sym_; }

  friend bool operator==(const InternedName& a, const InternedName& b) {
    return a.text_ == b.text_;
  }

 private:
  std::string text_;
  Symbol sym_ = kInvalidSymbol;
};

}  // namespace flexnet::packet
