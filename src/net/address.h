// IPv4 addressing for the simulated network.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace vids::net {

/// An IPv4 address (host byte order).
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr explicit IpAddress(uint32_t bits) : bits_(bits) {}
  constexpr IpAddress(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : bits_((uint32_t{a} << 24) | (uint32_t{b} << 16) | (uint32_t{c} << 8) |
              d) {}

  /// Parses dotted-quad notation ("192.168.1.20"). Returns nullopt on error.
  static std::optional<IpAddress> Parse(std::string_view text);

  constexpr uint32_t bits() const { return bits_; }
  std::string ToString() const;

  /// Room for the longest dotted quad, "255.255.255.255".
  using FormatBuffer = std::array<char, 15>;
  /// Writes the dotted quad into `buf` and returns the written text: the
  /// allocation-free form of ToString() for per-packet paths.
  std::string_view Format(FormatBuffer& buf) const {
    char* out = buf.data();
    for (int shift = 24; shift >= 0; shift -= 8) {
      const uint32_t octet = (bits_ >> shift) & 0xFF;
      if (octet >= 100) *out++ = static_cast<char>('0' + octet / 100);
      if (octet >= 10) *out++ = static_cast<char>('0' + octet / 10 % 10);
      *out++ = static_cast<char>('0' + octet % 10);
      if (shift != 0) *out++ = '.';
    }
    return {buf.data(), static_cast<size_t>(out - buf.data())};
  }

  constexpr auto operator<=>(const IpAddress&) const = default;

 private:
  uint32_t bits_ = 0;
};

/// An IPv4 subnet in CIDR form, used by forwarding tables.
class Subnet {
 public:
  constexpr Subnet() = default;
  constexpr Subnet(IpAddress base, int prefix_len)
      : base_(base), prefix_len_(prefix_len) {}

  /// Parses "10.1.0.0/16". Returns nullopt on error.
  static std::optional<Subnet> Parse(std::string_view text);

  constexpr bool Contains(IpAddress addr) const {
    if (prefix_len_ == 0) return true;
    const uint32_t mask = ~uint32_t{0} << (32 - prefix_len_);
    return (addr.bits() & mask) == (base_.bits() & mask);
  }
  constexpr int prefix_len() const { return prefix_len_; }
  constexpr IpAddress base() const { return base_; }
  std::string ToString() const;

 private:
  IpAddress base_;
  int prefix_len_ = 0;
};

/// A transport endpoint: IP address + UDP port.
struct Endpoint {
  IpAddress ip;
  uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
  std::string ToString() const;

  /// 48-bit binary key (ip << 16 | port) for hash-map indexing — the
  /// allocation-free alternative to keying containers on ToString().
  constexpr uint64_t PackedKey() const {
    return (uint64_t{ip.bits()} << 16) | port;
  }

  /// Parses "10.1.0.5:5060". Returns nullopt on error.
  static std::optional<Endpoint> Parse(std::string_view text);
};

std::ostream& operator<<(std::ostream& os, IpAddress addr);
std::ostream& operator<<(std::ostream& os, const Endpoint& ep);

}  // namespace vids::net

template <>
struct std::hash<vids::net::IpAddress> {
  size_t operator()(vids::net::IpAddress addr) const noexcept {
    return std::hash<uint32_t>{}(addr.bits());
  }
};

template <>
struct std::hash<vids::net::Endpoint> {
  size_t operator()(const vids::net::Endpoint& ep) const noexcept {
    return std::hash<uint64_t>{}(ep.PackedKey());
  }
};
