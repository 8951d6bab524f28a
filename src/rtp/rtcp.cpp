#include "rtp/rtcp.h"

namespace vids::rtp {

namespace {

void PutU16(std::string& out, uint16_t v) {
  out += static_cast<char>(v >> 8);
  out += static_cast<char>(v & 0xFF);
}
void PutU32(std::string& out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v >> 16));
  PutU16(out, static_cast<uint16_t>(v & 0xFFFF));
}
void PutU64(std::string& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFF));
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  bool Ok(size_t n) const { return pos_ + n <= data_.size(); }
  uint8_t U8() { return static_cast<uint8_t>(data_[pos_++]); }
  uint16_t U16() {
    const uint16_t hi = U8();
    return static_cast<uint16_t>((hi << 8) | U8());
  }
  uint32_t U32() {
    const uint32_t hi = U16();
    return (hi << 16) | U16();
  }
  uint64_t U64() {
    const uint64_t hi = U32();
    return (hi << 32) | U32();
  }
  std::string_view Bytes(size_t n) {
    const auto out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Common header: V=2|P|count(5) , PT(8) , length in 32-bit words - 1.
void PutHeader(std::string& out, uint8_t count, RtcpType type,
               size_t body_bytes) {
  out += static_cast<char>(0x80 | (count & 0x1F));
  out += static_cast<char>(type);
  PutU16(out, static_cast<uint16_t>((body_bytes + 4) / 4 - 1));
}

void PutReportBlock(std::string& out, const ReportBlock& block) {
  PutU32(out, block.ssrc);
  out += static_cast<char>(block.fraction_lost);
  out += static_cast<char>((block.cumulative_lost >> 16) & 0xFF);
  out += static_cast<char>((block.cumulative_lost >> 8) & 0xFF);
  out += static_cast<char>(block.cumulative_lost & 0xFF);
  PutU32(out, block.highest_seq);
  PutU32(out, block.jitter);
  PutU32(out, 0);  // LSR (unused in the simulation)
  PutU32(out, 0);  // DLSR
}

ReportBlock ReadReportBlock(Reader& reader) {
  ReportBlock block;
  block.ssrc = reader.U32();
  block.fraction_lost = reader.U8();
  block.cumulative_lost = (static_cast<uint32_t>(reader.U8()) << 16) |
                          (static_cast<uint32_t>(reader.U8()) << 8) |
                          reader.U8();
  block.highest_seq = reader.U32();
  block.jitter = reader.U32();
  reader.U32();  // LSR
  reader.U32();  // DLSR
  return block;
}

}  // namespace

std::string SenderReport::Serialize() const {
  std::string out;
  const size_t body = 24 + reports.size() * 24;
  PutHeader(out, static_cast<uint8_t>(reports.size()),
            RtcpType::kSenderReport, body);
  PutU32(out, sender_ssrc);
  PutU64(out, ntp_timestamp);
  PutU32(out, rtp_timestamp);
  PutU32(out, packet_count);
  PutU32(out, octet_count);
  for (const auto& block : reports) PutReportBlock(out, block);
  return out;
}

std::string ReceiverReport::Serialize() const {
  std::string out;
  const size_t body = 4 + reports.size() * 24;
  PutHeader(out, static_cast<uint8_t>(reports.size()),
            RtcpType::kReceiverReport, body);
  PutU32(out, sender_ssrc);
  for (const auto& block : reports) PutReportBlock(out, block);
  return out;
}

std::string RtcpBye::Serialize() const {
  std::string out;
  // Reason is padded to a word boundary, prefixed by its length byte.
  size_t reason_bytes = 0;
  if (!reason.empty()) {
    reason_bytes = (1 + reason.size() + 3) / 4 * 4;
  }
  const size_t body = ssrcs.size() * 4 + reason_bytes;
  PutHeader(out, static_cast<uint8_t>(ssrcs.size()), RtcpType::kBye, body);
  for (const auto ssrc : ssrcs) PutU32(out, ssrc);
  if (!reason.empty()) {
    out += static_cast<char>(reason.size());
    out += reason;
    while (out.size() % 4 != 0) out += '\0';
  }
  return out;
}

bool IsRtcp(std::string_view data) {
  if (data.size() < 4) return false;
  const auto byte0 = static_cast<uint8_t>(data[0]);
  const auto packet_type = static_cast<uint8_t>(data[1]);
  // Most packets are RTP or SIP: turn them away on the first two bytes.
  if ((byte0 >> 6) != 2 || packet_type < 200 || packet_type > 203) {
    return false;
  }
  const size_t count = byte0 & 0x1F;
  const size_t body_bytes =
      ((static_cast<size_t>(static_cast<uint8_t>(data[2])) << 8) |
       static_cast<uint8_t>(data[3])) * 4;
  if (data.size() - 4 < body_bytes) return false;
  switch (packet_type) {
    case 200:
      return body_bytes >= 24 + count * 24;
    case 201:
      return body_bytes >= 4 + count * 24;
    case 203:
      return body_bytes >= count * 4;
    default:
      return false;  // SDES not modeled
  }
}

std::optional<RtcpPacket> ParseRtcp(std::string_view data) {
  if (!IsRtcp(data)) return std::nullopt;
  Reader reader(data);
  const uint8_t byte0 = reader.U8();
  const uint8_t count = byte0 & 0x1F;
  const uint8_t packet_type = reader.U8();
  const uint16_t length_words = reader.U16();
  const size_t body_bytes = static_cast<size_t>(length_words) * 4;

  RtcpPacket packet;
  switch (packet_type) {
    case 200: {
      SenderReport sr;
      sr.sender_ssrc = reader.U32();
      sr.ntp_timestamp = reader.U64();
      sr.rtp_timestamp = reader.U32();
      sr.packet_count = reader.U32();
      sr.octet_count = reader.U32();
      for (int i = 0; i < count; ++i) sr.reports.push_back(ReadReportBlock(reader));
      packet.sr = std::move(sr);
      return packet;
    }
    case 201: {
      ReceiverReport rr;
      rr.sender_ssrc = reader.U32();
      for (int i = 0; i < count; ++i) rr.reports.push_back(ReadReportBlock(reader));
      packet.rr = std::move(rr);
      return packet;
    }
    case 203: {
      RtcpBye bye;
      for (int i = 0; i < count; ++i) bye.ssrcs.push_back(reader.U32());
      if (body_bytes > count * 4u) {
        const uint8_t reason_len = reader.U8();
        if (reader.Ok(reason_len)) {
          bye.reason = std::string(reader.Bytes(reason_len));
        }
      }
      packet.bye = std::move(bye);
      return packet;
    }
    default:
      return std::nullopt;  // SDES/APP not modeled
  }
}

}  // namespace vids::rtp
