#include "net/address.h"

#include "common/strings.h"

namespace vids::net {

using common::ParseInt;

std::optional<IpAddress> IpAddress::Parse(std::string_view text) {
  // Manual dotted-quad walk: exactly four '.'-separated pieces, each a
  // decimal octet (ParseInt trims, so lws around pieces is tolerated exactly
  // as the old Split-based version allowed). No heap traffic — this runs in
  // the per-packet inspect path via Via and SDP connection lines.
  uint32_t bits = 0;
  size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const size_t dot = text.find('.', start);
    const bool last = (i == 3);
    if (last != (dot == std::string_view::npos)) return std::nullopt;
    const std::string_view piece =
        last ? text.substr(start) : text.substr(start, dot - start);
    const auto octet = ParseInt<uint32_t>(piece);
    if (!octet || *octet > 255) return std::nullopt;
    bits = (bits << 8) | *octet;
    start = dot + 1;
  }
  return IpAddress(bits);
}

std::string IpAddress::ToString() const {
  FormatBuffer buf;
  return std::string(Format(buf));
}

std::optional<Subnet> Subnet::Parse(std::string_view text) {
  const auto split = common::SplitOnce(text, '/');
  if (!split) return std::nullopt;
  const auto base = IpAddress::Parse(split->first);
  const auto prefix = ParseInt<int>(split->second);
  if (!base || !prefix || *prefix < 0 || *prefix > 32) return std::nullopt;
  return Subnet(*base, *prefix);
}

std::string Subnet::ToString() const {
  return base_.ToString() + "/" + std::to_string(prefix_len_);
}

std::string Endpoint::ToString() const {
  return ip.ToString() + ":" + std::to_string(port);
}

std::optional<Endpoint> Endpoint::Parse(std::string_view text) {
  const auto split = common::SplitOnce(text, ':');
  if (!split) return std::nullopt;
  const auto ip = IpAddress::Parse(split->first);
  const auto port = ParseInt<uint16_t>(split->second);
  if (!ip || !port) return std::nullopt;
  return Endpoint{*ip, *port};
}

std::ostream& operator<<(std::ostream& os, IpAddress addr) {
  return os << addr.ToString();
}

std::ostream& operator<<(std::ostream& os, const Endpoint& ep) {
  return os << ep.ToString();
}

}  // namespace vids::net
