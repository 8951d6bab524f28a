#include "capture/pcap.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace vids::capture {

namespace {

// pcap magics, as read little-endian from the first four file bytes.
constexpr uint32_t kMagicMicroLe = 0xa1b2c3d4;  // LE file, µs fractions
constexpr uint32_t kMagicMicroBe = 0xd4c3b2a1;  // BE file, µs fractions
constexpr uint32_t kMagicNanoLe = 0xa1b23c4d;   // LE file, ns fractions
constexpr uint32_t kMagicNanoBe = 0x4d3cb2a1;   // BE file, ns fractions

constexpr uint32_t kLinktypeEthernet = 1;
constexpr uint32_t kLinktypeRawIp = 101;  // LINKTYPE_RAW: IPv4/IPv6 directly

constexpr uint16_t kEthertypeIpv4 = 0x0800;
constexpr uint16_t kEthertypeVlan = 0x8100;   // 802.1Q
constexpr uint16_t kEthertypeQinQ = 0x88A8;   // 802.1ad
constexpr uint16_t kEthertypeQinQ2 = 0x9100;  // legacy double-tag

constexpr uint8_t kIpProtoUdp = 17;

/// Largest UDP payload an IPv4 datagram can carry (65535 - 20 - 8).
constexpr size_t kMaxUdpPayload = 65507;

/// The most bytes of one record that decoding reads: an Ethernet header
/// with two VLAN tags, a 60-byte IPv4 header, the UDP header and the
/// largest UDP payload. Every check on a longer record reads the same
/// answer from its first kFrameBytes.
constexpr size_t kFrameBytes = 14 + 2 * 4 + 60 + 8 + kMaxUdpPayload;
static_assert(kFrameBytes <= PcapFileSource::kWindowBytes,
              "the largest UDP/IPv4 frame must fit in one window");

uint32_t Bswap32(uint32_t v) {
  return ((v & 0xFF000000U) >> 24) | ((v & 0x00FF0000U) >> 8) |
         ((v & 0x0000FF00U) << 8) | ((v & 0x000000FFU) << 24);
}

uint16_t Bswap16(uint16_t v) {
  return static_cast<uint16_t>((v >> 8) | (v << 8));
}

// Frame contents are always network byte order, independent of the pcap
// header endianness.
uint16_t FrameU16(std::string_view frame, size_t offset) {
  return static_cast<uint16_t>(
      (static_cast<uint16_t>(static_cast<uint8_t>(frame[offset])) << 8) |
      static_cast<uint16_t>(static_cast<uint8_t>(frame[offset + 1])));
}

uint32_t FrameU32(std::string_view frame, size_t offset) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(frame[offset])) << 24) |
         (static_cast<uint32_t>(static_cast<uint8_t>(frame[offset + 1]))
          << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(frame[offset + 2]))
          << 8) |
         static_cast<uint32_t>(static_cast<uint8_t>(frame[offset + 3]));
}

}  // namespace

// ----------------------------------------------------------------- reader

PcapFileSource::PcapFileSource(std::string bytes, PcapReadOptions options)
    : PcapFileSource(options) {
  window_ = std::make_unique_for_overwrite<char[]>(bytes.size());
  std::memcpy(window_.get(), bytes.data(), bytes.size());
  capacity_ = end_ = bytes.size();
  read_ = size_ = bytes.size();
  ReadGlobalHeader();
}

std::unique_ptr<PcapFileSource> PcapFileSource::Open(
    const std::string& path, PcapReadOptions options) {
  std::unique_ptr<PcapFileSource> source(new PcapFileSource(options));
  source->path_ = path;
  source->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (source->fd_ < 0 || ::fstat(source->fd_, &st) != 0) {
    source->Fail("pcap: cannot read " + path);
    return source;
  }
  if (S_ISREG(st.st_mode)) source->size_ = static_cast<uint64_t>(st.st_size);
  source->window_ = std::make_unique_for_overwrite<char[]>(kWindowBytes);
  source->capacity_ = kWindowBytes;
  source->ReadGlobalHeader();
  return source;
}

PcapFileSource::~PcapFileSource() { CloseFile(); }

void PcapFileSource::ReadGlobalHeader() {
  if (!Fill(24)) {
    if (ok()) {
      Fail("pcap: file truncated inside the 24-byte global header (" +
           std::to_string(end_ - begin_) + " bytes)");
    }
    return;
  }
  // Read the magic little-endian; the byte-swapped constants then identify
  // big-endian files, so detection is host-order independent.
  const uint32_t magic = ReadU32(0);
  switch (magic) {
    case kMagicMicroLe: swapped_ = false; nanosecond_ = false; break;
    case kMagicNanoLe: swapped_ = false; nanosecond_ = true; break;
    case kMagicMicroBe: swapped_ = true; nanosecond_ = false; break;
    case kMagicNanoBe: swapped_ = true; nanosecond_ = true; break;
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%08x", magic);
      Fail(std::string("pcap: bad magic ") + buf +
           " (not a classic pcap savefile)");
      return;
    }
  }
  linktype_ = ReadU32(20);
  if (linktype_ != kLinktypeEthernet && linktype_ != kLinktypeRawIp) {
    Fail("pcap: unsupported linktype " + std::to_string(linktype_) +
         " (supported: 1 Ethernet, 101 raw IPv4)");
    return;
  }
  begin_ = 24;
}

void PcapFileSource::Fail(std::string message) {
  error_ = std::move(message);
  CloseFile();
}

bool PcapFileSource::FailPastEnd(uint32_t incl_len, uint64_t left) {
  // An I/O error that ended the read keeps its own description.
  if (ok()) {
    Fail("pcap: record " + std::to_string(stats_.records + 1) +
         " runs past end of file (incl_len " + std::to_string(incl_len) +
         ", " + std::to_string(left) + " bytes left)");
  }
  return false;
}

void PcapFileSource::CloseFile() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool PcapFileSource::Fill(size_t n) {
  if (end_ - begin_ >= n) return true;
  if (fd_ < 0) return false;
  Compact();
  while (end_ < n) {
    if (!ReadMore()) return false;
  }
  return true;
}

void PcapFileSource::Compact() {
  std::memmove(window_.get(), window_.get() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
}

bool PcapFileSource::ReadMore() {
  if (fd_ < 0) return false;
  // Never past the size fstat reported: a regular file ends there.
  const auto room =
      static_cast<size_t>(std::min<uint64_t>(capacity_ - end_, size_ - read_));
  ssize_t n = 0;
  if (room > 0) {
    do {
      n = ::read(fd_, window_.get() + end_, room);
    } while (n < 0 && errno == EINTR);
  }
  if (n > 0) {
    end_ += static_cast<size_t>(n);
    read_ += static_cast<uint64_t>(n);
    return true;
  }
  if (n < 0) {
    Fail("pcap: cannot read " + path_);
  } else {
    CloseFile();
  }
  return false;
}

uint32_t PcapFileSource::ReadU32(size_t pos) const {
  const char* p = window_.get() + pos;
  const uint32_t v =
      (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24) |
      (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
      (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
      static_cast<uint32_t>(static_cast<uint8_t>(p[0]));
  return swapped_ ? Bswap32(v) : v;
}

size_t PcapFileSource::PullBatch(std::vector<TimedPacket>& out, size_t max) {
  size_t n = 0;
  while (n < max) {
    if (n == out.size()) out.emplace_back();
    if (!DecodeNext(out[n])) break;
    ++n;
  }
  out.resize(n);
  return n;
}

bool PcapFileSource::TakeFrame(uint32_t incl_len, std::string_view& frame) {
  const size_t keep = std::min<size_t>(incl_len, kFrameBytes);
  if (!Fill(keep)) return FailPastEnd(incl_len, end_ - begin_);
  const uint64_t tail = incl_len - keep;  // bytes no decoder reads
  if (end_ - begin_ - keep >= tail) {  // the whole record is in the window
    frame = std::string_view(window_.get() + begin_, keep);
    begin_ += incl_len;
    return true;
  }
  // A record longer than any UDP/IPv4 frame runs past the window: keep its
  // first kFrameBytes at the front and drop the rest as it is read.
  Compact();
  uint64_t dropped = 0;
  for (;;) {
    const size_t behind = end_ - keep;
    const auto drop = static_cast<size_t>(
        std::min<uint64_t>(behind, tail - dropped));
    std::memmove(window_.get() + keep, window_.get() + keep + drop,
                 behind - drop);
    end_ -= drop;
    dropped += drop;
    if (dropped == tail) break;
    if (!ReadMore()) return FailPastEnd(incl_len, keep + dropped);
  }
  frame = std::string_view(window_.get(), keep);
  begin_ = keep;
  return true;
}

bool PcapFileSource::DecodeNext(TimedPacket& out) {
  while (ok()) {
    if (!Fill(16)) {
      const size_t left = end_ - begin_;
      if (left != 0 && ok()) {
        Fail("pcap: record " + std::to_string(stats_.records + 1) +
             " truncated inside the record header (offset " +
             std::to_string(read_ - left) + ", " + std::to_string(left) +
             " bytes left)");
      }
      return false;  // clean EOF when nothing is left and no fault
    }
    const uint32_t ts_sec = ReadU32(begin_);
    const uint32_t ts_frac = ReadU32(begin_ + 4);
    const uint32_t incl_len = ReadU32(begin_ + 8);
    const uint32_t orig_len = ReadU32(begin_ + 12);
    begin_ += 16;
    // read_ - (end_ - begin_) is the file offset of the record's frame.
    const uint64_t left = size_ - (read_ - (end_ - begin_));
    std::string_view frame;
    if (incl_len > left) return FailPastEnd(incl_len, left);
    if (!TakeFrame(incl_len, frame)) return false;
    ++stats_.records;
    if (orig_len < incl_len) {
      Fail("pcap: record " + std::to_string(stats_.records) +
           " has orig_len " + std::to_string(orig_len) + " < incl_len " +
           std::to_string(incl_len));
      return false;
    }

    // ---- link layer ----
    size_t p = 0;
    if (linktype_ == kLinktypeEthernet) {
      if (frame.size() < 14) {
        ++stats_.skipped_malformed;
        continue;
      }
      uint16_t ethertype = FrameU16(frame, 12);
      p = 14;
      // Up to two stacked VLAN tags (802.1ad outer + 802.1Q inner).
      bool torn = false;
      for (int tag = 0; tag < 2 && (ethertype == kEthertypeVlan ||
                                    ethertype == kEthertypeQinQ ||
                                    ethertype == kEthertypeQinQ2);
           ++tag) {
        if (frame.size() < p + 4) {
          torn = true;
          break;
        }
        ethertype = FrameU16(frame, p + 2);
        p += 4;
      }
      if (torn) {
        ++stats_.skipped_malformed;
        continue;
      }
      if (ethertype != kEthertypeIpv4) {
        ++stats_.skipped_non_ip;
        continue;
      }
    }

    // ---- IPv4 ----
    if (frame.size() < p + 20) {
      ++stats_.skipped_malformed;
      continue;
    }
    const auto vihl = static_cast<uint8_t>(frame[p]);
    if ((vihl >> 4) != 4) {
      ++stats_.skipped_non_ip;
      continue;
    }
    const size_t ihl = static_cast<size_t>(vihl & 0xF) * 4;
    if (ihl < 20 || frame.size() < p + ihl) {
      ++stats_.skipped_malformed;
      continue;
    }
    const uint16_t frag = FrameU16(frame, p + 6);
    if ((frag & 0x2000) != 0 || (frag & 0x1FFF) != 0) {
      ++stats_.skipped_fragment;  // MF set or nonzero offset; no reassembly
      continue;
    }
    if (static_cast<uint8_t>(frame[p + 9]) != kIpProtoUdp) {
      ++stats_.skipped_non_udp;
      continue;
    }
    const net::IpAddress src_ip(FrameU32(frame, p + 12));
    const net::IpAddress dst_ip(FrameU32(frame, p + 16));

    // ---- UDP ----
    const size_t udp = p + ihl;
    if (frame.size() < udp + 8) {
      ++stats_.skipped_malformed;  // snap cut inside the UDP header
      continue;
    }
    const uint16_t src_port = FrameU16(frame, udp);
    const uint16_t dst_port = FrameU16(frame, udp + 2);
    const uint16_t udp_len = FrameU16(frame, udp + 4);
    if (udp_len < 8 || static_cast<size_t>(udp_len - 8) > kMaxUdpPayload) {
      ++stats_.skipped_malformed;
      continue;
    }
    // The UDP length field names the wire payload; the captured slice may
    // be shorter (snaplen truncation) or longer (Ethernet trailer padding
    // on sub-minimum frames). The difference between the wire payload and
    // the captured bytes is preserved as Datagram::padding_bytes, so torn
    // packets keep their true wire size without fabricated filler.
    const size_t full_payload = static_cast<size_t>(udp_len) - 8;
    const size_t captured = std::min(frame.size() - (udp + 8), full_payload);

    // ---- timestamp ----
    const int64_t frac_ns = nanosecond_
                                ? static_cast<int64_t>(ts_frac)
                                : static_cast<int64_t>(ts_frac) * 1000;
    int64_t ts_ns = static_cast<int64_t>(ts_sec) * 1'000'000'000 + frac_ns;
    if (first_ts_ns_ < 0) first_ts_ns_ = ts_ns;
    if (options_.rebase_to_first) ts_ns -= first_ts_ns_;
    // Contract: timestamps are non-decreasing. Real captures can jitter a
    // few µs backwards across capture queues; clamp to the stream clock
    // rather than failing the whole file.
    if (ts_ns < clock_.nanos()) ts_ns = clock_.nanos();

    out.when = sim::Time::FromNanos(ts_ns);
    out.from_outside =
        options_.inside.has_value() ? !options_.inside->Contains(src_ip) : true;
    out.dgram.src = net::Endpoint{src_ip, src_port};
    out.dgram.dst = net::Endpoint{dst_ip, dst_port};
    out.dgram.payload.assign(frame.substr(udp + 8, captured));
    out.dgram.padding_bytes = static_cast<uint32_t>(full_payload - captured);
    out.dgram.sent_time = out.when;
    out.dgram.id = next_id_++;
    clock_ = out.when;
    ++stats_.delivered;
    return true;
  }
  return false;
}

// ----------------------------------------------------------------- writer

PcapWriter::PcapWriter(PcapWriteOptions options) : options_(options) {
  PutU32(options_.nanosecond ? kMagicNanoLe : kMagicMicroLe);
  PutU16(2);      // version major
  PutU16(4);      // version minor
  PutU32(0);      // thiszone
  PutU32(0);      // sigfigs
  PutU32(65535);  // snaplen
  PutU32(kLinktypeEthernet);
}

void PcapWriter::PutU16(uint16_t value) {
  if (options_.big_endian) value = Bswap16(value);
  bytes_ += static_cast<char>(value & 0xFF);
  bytes_ += static_cast<char>((value >> 8) & 0xFF);
}

void PcapWriter::PutU32(uint32_t value) {
  if (options_.big_endian) value = Bswap32(value);
  bytes_ += static_cast<char>(value & 0xFF);
  bytes_ += static_cast<char>((value >> 8) & 0xFF);
  bytes_ += static_cast<char>((value >> 16) & 0xFF);
  bytes_ += static_cast<char>((value >> 24) & 0xFF);
}

bool PcapWriter::Add(sim::Time when, const net::Datagram& dgram) {
  const size_t wire_payload = dgram.payload.size() + dgram.padding_bytes;
  if (wire_payload > kMaxUdpPayload) return false;
  // Frame bytes are network order regardless of the header endianness.
  const auto put_be16 = [this](uint16_t v) {
    bytes_ += static_cast<char>((v >> 8) & 0xFF);
    bytes_ += static_cast<char>(v & 0xFF);
  };
  const auto put_be32 = [this](uint32_t v) {
    bytes_ += static_cast<char>((v >> 24) & 0xFF);
    bytes_ += static_cast<char>((v >> 16) & 0xFF);
    bytes_ += static_cast<char>((v >> 8) & 0xFF);
    bytes_ += static_cast<char>(v & 0xFF);
  };
  const auto put_mac = [this](net::IpAddress ip) {
    // Locally-administered MACs derived from the IP: deterministic and
    // collision-free within a corpus.
    bytes_ += static_cast<char>(0x02);
    bytes_ += static_cast<char>(0x00);
    bytes_ += static_cast<char>((ip.bits() >> 24) & 0xFF);
    bytes_ += static_cast<char>((ip.bits() >> 16) & 0xFF);
    bytes_ += static_cast<char>((ip.bits() >> 8) & 0xFF);
    bytes_ += static_cast<char>(ip.bits() & 0xFF);
  };

  const auto udp_len = static_cast<uint16_t>(8 + wire_payload);
  const auto ip_total = static_cast<uint16_t>(20 + udp_len);
  const size_t eth_len = options_.vlan ? 18 : 14;
  // padding_bytes become the snap-truncated tail: headers claim them,
  // stored bytes omit them (orig_len - incl_len = padding).
  const auto incl_len =
      static_cast<uint32_t>(eth_len + 20 + 8 + dgram.payload.size());
  const auto orig_len = static_cast<uint32_t>(eth_len + ip_total);

  const int64_t ts_ns =
      options_.epoch_base_s * 1'000'000'000 + when.nanos();
  PutU32(static_cast<uint32_t>(ts_ns / 1'000'000'000));
  const int64_t frac = ts_ns % 1'000'000'000;
  PutU32(static_cast<uint32_t>(options_.nanosecond ? frac : frac / 1000));
  PutU32(incl_len);
  PutU32(orig_len);

  // Ethernet
  put_mac(dgram.dst.ip);
  put_mac(dgram.src.ip);
  if (options_.vlan) {
    put_be16(kEthertypeVlan);
    put_be16(100);  // VLAN id 100, priority 0
  }
  put_be16(kEthertypeIpv4);

  // IPv4, header checksum computed over the 20 header bytes.
  const size_t ip_start = bytes_.size();
  bytes_ += static_cast<char>(0x45);  // version 4, IHL 5
  bytes_ += static_cast<char>(0x00);  // TOS
  put_be16(ip_total);
  put_be16(next_ip_id_++);
  put_be16(0x4000);                   // DF, fragment offset 0
  bytes_ += static_cast<char>(64);    // TTL
  bytes_ += static_cast<char>(kIpProtoUdp);
  put_be16(0);                        // checksum placeholder
  put_be32(dgram.src.ip.bits());
  put_be32(dgram.dst.ip.bits());
  uint32_t sum = 0;
  for (size_t i = 0; i < 20; i += 2) {
    sum += static_cast<uint32_t>(
        (static_cast<uint8_t>(bytes_[ip_start + i]) << 8) |
        static_cast<uint8_t>(bytes_[ip_start + i + 1]));
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const auto checksum = static_cast<uint16_t>(~sum & 0xFFFF);
  bytes_[ip_start + 10] = static_cast<char>((checksum >> 8) & 0xFF);
  bytes_[ip_start + 11] = static_cast<char>(checksum & 0xFF);

  // UDP (checksum 0 = none, legal over IPv4), then the stored payload.
  put_be16(dgram.src.port);
  put_be16(dgram.dst.port);
  put_be16(udp_len);
  put_be16(0);
  bytes_ += dgram.payload;
  return true;
}

bool PcapWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(bytes_.data(), 1, bytes_.size(), f);
  const int close_rc = std::fclose(f);
  return written == bytes_.size() && close_rc == 0;
}

}  // namespace vids::capture
