// RTP fixed header (RFC 1889 / RFC 3550 §5.1) binary codec.
//
// The vIDS media-spamming detector (paper Fig. 6) keys on exactly the fields
// this header carries: SSRC, sequence number and timestamp. Payload bytes
// are modeled as wire padding; the 12-byte header is carried for real so
// the IDS parses genuine packets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vids::rtp {

struct RtpHeader {
  uint8_t version = 2;
  bool padding = false;
  bool extension = false;
  uint8_t csrc_count = 0;
  bool marker = false;
  uint8_t payload_type = 0;
  uint16_t sequence_number = 0;
  uint32_t timestamp = 0;
  uint32_t ssrc = 0;

  /// Serializes the 12-byte fixed header.
  std::string Serialize() const;

  /// Parses a fixed header from the start of `data`. Returns nullopt if the
  /// buffer is short or the version is not 2.
  static std::optional<RtpHeader> Parse(std::string_view data);

  bool operator==(const RtpHeader&) const = default;
};

constexpr size_t kRtpHeaderSize = 12;

/// The RTP decision: true exactly when RtpHeader::Parse accepts `data`
/// (at least the 12-byte fixed header, version 2). RTCP passes it too, so
/// callers that must tell the two apart test rtp::IsRtcp first.
inline bool IsRtp(std::string_view data) {
  return data.size() >= kRtpHeaderSize &&
         (static_cast<uint8_t>(data[0]) >> 6) == 2;
}

/// 16-bit sequence-number distance with wraparound: how far `b` is ahead of
/// `a` (negative if behind). Used by both the receiver's loss accounting and
/// the IDS gap predicate.
int SeqDistance(uint16_t a, uint16_t b);

/// 32-bit timestamp distance with wraparound (b - a as signed).
int64_t TimestampDistance(uint32_t a, uint32_t b);

}  // namespace vids::rtp
