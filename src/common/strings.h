// String utilities shared by the text-protocol parsers (SIP, SDP).
//
// SIP (RFC 3261) is case-insensitive in header field names and many token
// values, and its grammar leans heavily on linear-white-space trimming; the
// helpers here implement those primitives once so the parsers stay readable.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vids::common {

/// Returns `s` with ASCII whitespace (SP, HTAB, CR, LF) removed from both ends.
std::string_view Trim(std::string_view s);

/// Splits `s` on `sep`, trimming each piece. Empty pieces are kept so that
/// positional grammars (e.g. SDP "o=" lines) can detect missing fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Splits on the first occurrence of `sep` only. Returns nullopt if absent.
std::optional<std::pair<std::string_view, std::string_view>> SplitOnce(
    std::string_view s, char sep);

/// ASCII lower-casing (locale independent, as required by RFC 3261 §7.3.1).
std::string ToLower(std::string_view s);

/// In-place ASCII lower-casing — no temporary string.
void AsciiLowerInPlace(std::string& s);

/// The heap block `s` holds, for memory accounting: 0 while its characters
/// fit the string's inline buffer, else its capacity and terminator.
inline size_t StringHeapBytes(const std::string& s) {
  const auto data = reinterpret_cast<uintptr_t>(s.data());
  const auto self = reinterpret_cast<uintptr_t>(&s);
  return data >= self && data < self + sizeof(s) ? 0 : s.capacity() + 1;
}

/// Transparent hash for unordered containers keyed by std::string that want
/// heterogeneous (string_view) lookup without materializing a key string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// FNV-1a 64 over the raw bytes, the same in every process (unlike
/// std::hash): the sharded engine partitions Call-IDs by it and the
/// behavior layer keys identities by it. Its offset basis is a digit short
/// of the published 14695981039346656037; changing it would move every
/// call's shard and every behavior key.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Case-insensitive comparison for header names and tokens.
bool IEquals(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`, compared case-insensitively.
bool IStartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative decimal integer occupying the whole of `s`.
template <typename Int>
std::optional<Int> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  Int value{};
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

/// Joins `parts` with `sep` — the inverse of Split for serializers.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace vids::common
