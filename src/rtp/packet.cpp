#include "rtp/packet.h"

namespace vids::rtp {

std::string RtpHeader::Serialize() const {
  std::string out(kRtpHeaderSize, '\0');
  out[0] = static_cast<char>((version << 6) | (padding ? 0x20 : 0) |
                             (extension ? 0x10 : 0) | (csrc_count & 0x0F));
  out[1] = static_cast<char>((marker ? 0x80 : 0) | (payload_type & 0x7F));
  out[2] = static_cast<char>(sequence_number >> 8);
  out[3] = static_cast<char>(sequence_number & 0xFF);
  out[4] = static_cast<char>(timestamp >> 24);
  out[5] = static_cast<char>((timestamp >> 16) & 0xFF);
  out[6] = static_cast<char>((timestamp >> 8) & 0xFF);
  out[7] = static_cast<char>(timestamp & 0xFF);
  out[8] = static_cast<char>(ssrc >> 24);
  out[9] = static_cast<char>((ssrc >> 16) & 0xFF);
  out[10] = static_cast<char>((ssrc >> 8) & 0xFF);
  out[11] = static_cast<char>(ssrc & 0xFF);
  return out;
}

std::optional<RtpHeader> RtpHeader::Parse(std::string_view data) {
  if (!IsRtp(data)) return std::nullopt;
  const auto byte = [&](size_t i) {
    return static_cast<uint8_t>(data[i]);
  };
  RtpHeader header;
  header.version = byte(0) >> 6;
  header.padding = (byte(0) & 0x20) != 0;
  header.extension = (byte(0) & 0x10) != 0;
  header.csrc_count = byte(0) & 0x0F;
  header.marker = (byte(1) & 0x80) != 0;
  header.payload_type = byte(1) & 0x7F;
  header.sequence_number =
      static_cast<uint16_t>((uint16_t{byte(2)} << 8) | byte(3));
  header.timestamp = (uint32_t{byte(4)} << 24) | (uint32_t{byte(5)} << 16) |
                     (uint32_t{byte(6)} << 8) | byte(7);
  header.ssrc = (uint32_t{byte(8)} << 24) | (uint32_t{byte(9)} << 16) |
                (uint32_t{byte(10)} << 8) | byte(11);
  return header;
}

int SeqDistance(uint16_t a, uint16_t b) {
  const int16_t diff = static_cast<int16_t>(b - a);
  return diff;
}

int64_t TimestampDistance(uint32_t a, uint32_t b) {
  const int32_t diff = static_cast<int32_t>(b - a);
  return diff;
}

}  // namespace vids::rtp
