// Classic pcap (libpcap savefile) reader and writer — no libpcap.
//
// pcap is the engine's one capture format: a capture taken off a wire and
// a saved recording of a simulated run (ids::TraceLog's records, written
// out with PcapWriter) both enter the engine through PcapFileSource and
// capture::RunSource (capture/replay.h).
//
// The reader is a hand parser for the format an operator actually hands a
// tap-deployed IDS: classic pcap (magic 0xa1b2c3d4 microsecond or
// 0xa1b23c4d nanosecond, either byte order), linktype Ethernet (with up to
// two stacked 802.1Q/802.1ad VLAN tags) or raw IPv4, carrying UDP. Frames
// that are not UDP/IPv4 (ARP, TCP, fragments, …) are skipped and counted;
// a structurally broken file (bad magic, record running past EOF) stops
// the stream with `error()` set after delivering everything decoded up to
// the fault. Snaplen-truncated records are preserved as torn packets: the
// bytes beyond `incl_len` become `Datagram::padding_bytes`
// (= orig_len - incl_len), so wire sizes round-trip without filler.
//
// A capture file is streamed, never loaded: records are decoded out of one
// window of kWindowBytes that is refilled from the file as it drains, so
// replaying a capture of any size holds one window of it in memory. An
// in-memory capture takes the same path, its window holding every byte.
//
// The writer emits one UDP/IPv4/Ethernet frame per datagram with MACs
// derived from the IPs, in either byte order, so recordings, the corpus
// (tools/make_corpus) and the round-trip tests are deterministic captures.
// A frame does not carry the tap direction: the reader derives it from
// `PcapReadOptions::inside`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.h"
#include "net/datagram.h"
#include "sim/time.h"

namespace vids::capture {

/// One captured packet: arrival instant on the source's clock, the
/// direction verdict (outside the protected perimeter?) and the datagram.
struct TimedPacket {
  sim::Time when;
  bool from_outside = false;
  net::Datagram dgram;
};

struct PcapReadOptions {
  /// Direction inference: packets whose *source* address lies inside this
  /// subnet are marked from_outside = false, everything else
  /// from_outside = true. Unset => all traffic is treated as outside (the
  /// conservative tap-on-the-perimeter default).
  std::optional<net::Subnet> inside;

  /// Rebase timestamps so the first packet arrives at t = 0 on the sim
  /// clock. Detection is time-translation-invariant, so verdict counts are
  /// unaffected; disable to keep absolute capture epochs.
  bool rebase_to_first = true;
};

/// Decode tallies, for operator output and skip-accounting in tests.
struct PcapStats {
  uint64_t records = 0;            ///< records decoded, delivered or not
  uint64_t delivered = 0;          ///< UDP datagrams handed to the engine
  uint64_t skipped_non_ip = 0;     ///< non-IPv4 ethertype / IP version
  uint64_t skipped_non_udp = 0;    ///< IPv4 but protocol != UDP
  uint64_t skipped_fragment = 0;   ///< IPv4 fragments (no reassembly)
  uint64_t skipped_malformed = 0;  ///< headers truncated inside the snap

  friend bool operator==(const PcapStats&, const PcapStats&) = default;
};

/// A pull-batch iterator over the capture's UDP datagrams, and the owner
/// of the stream's logical clock (DESIGN.md §14):
///  - PullBatch decodes up to `max` packets into `out`, refilling the
///    TimedPackets already there in place and appending only when `out` is
///    shorter, then resizes `out` to the count and returns it. 0 means end
///    of stream — permanently; callers must not retry.
///  - Timestamps are non-decreasing across the whole stream (a backward
///    record is clamped to the stream clock). Ties are delivered in capture
///    order.
///  - `out` is caller-owned scratch: a driver that reuses one vector across
///    calls keeps every payload's capacity, so once its slots have held
///    their largest payloads steady-state replay allocates nothing, per
///    batch or per packet.
///  - Memory: a file is read through one window of kWindowBytes, whatever
///    its size. A regular file's size, taken by fstat at Open, bounds every
///    record: one claiming more bytes than remain fails before any read
///    (from a pipe, whose size is unknown, it fails at end of file).
///    Decoding reads at most the first 65,597 bytes of a record (the
///    largest UDP/IPv4 frame); the rest of a longer record is read past,
///    so no header can make the reader allocate.
///  - `clock()` is the highest timestamp the source vouches for, so a
///    driver that has drained the source may advance its scheduler to
///    `clock()` and know that every TTL sweep, aggregate window and
///    watchdog deadline it fires is consistent with the traffic it saw.
///  - `error()` is empty while the stream is healthy. A framing or I/O
///    fault sets it to a description naming the offending record (or
///    `pcap: cannot read PATH` for an I/O error), the packets decoded
///    before the fault are delivered, and PullBatch then returns 0. EOF
///    with an empty error() is a clean end of capture.
class PcapFileSource {
 public:
  /// Bytes of the window a capture file is read through.
  static constexpr size_t kWindowBytes = size_t{1} << 20;

  /// An in-memory capture: the window holds every byte and no file is
  /// behind it. Parses the global header eagerly; on a bad header the
  /// source is created with error() set and yields nothing.
  explicit PcapFileSource(std::string bytes, PcapReadOptions options = {});

  /// Opens `path` and reads its first window, which holds the global
  /// header; records are read as PullBatch drains the window. An unreadable
  /// file yields a source with error() set (uniform handling with
  /// in-stream faults).
  static std::unique_ptr<PcapFileSource> Open(const std::string& path,
                                              PcapReadOptions options = {});

  ~PcapFileSource();
  PcapFileSource(const PcapFileSource&) = delete;
  PcapFileSource& operator=(const PcapFileSource&) = delete;

  size_t PullBatch(std::vector<TimedPacket>& out, size_t max);
  sim::Time clock() const { return clock_; }
  const std::string& error() const { return error_; }
  bool ok() const { return error_.empty(); }

  const PcapStats& stats() const { return stats_; }
  bool nanosecond() const { return nanosecond_; }
  bool swapped() const { return swapped_; }
  uint32_t linktype() const { return linktype_; }

 private:
  explicit PcapFileSource(PcapReadOptions options) : options_(options) {}

  void ReadGlobalHeader();

  /// Decodes records until one UDP packet materializes. Returns false at
  /// end of stream (clean EOF or fault — error_ distinguishes).
  bool DecodeNext(TimedPacket& out);

  /// Consumes the next record's `incl_len` bytes and points `frame` at the
  /// ones decoding reads, valid until the next read. False, with error_
  /// set, when the source ends inside the record.
  bool TakeFrame(uint32_t incl_len, std::string_view& frame);

  /// Makes `n` (<= the window's size) unread bytes available at
  /// window_[begin_], reading the file as needed. False when the source
  /// ends first; an I/O error also sets error_.
  bool Fill(size_t n);
  /// Moves the unread bytes to the front of the window.
  void Compact();
  /// Reads the file into the free end of the window. False at end of file
  /// or on an I/O error (which sets error_); either closes the file.
  bool ReadMore();
  void Fail(std::string message);
  /// Fails the record that claims `incl_len` bytes where `left` remain;
  /// returns false.
  bool FailPastEnd(uint32_t incl_len, uint64_t left);
  void CloseFile();

  /// The header field at window_[pos], in the file's byte order.
  uint32_t ReadU32(size_t pos) const;

  std::unique_ptr<char[]> window_;
  size_t capacity_ = 0;  ///< window_'s size
  size_t begin_ = 0;     ///< first unread byte in window_
  size_t end_ = 0;       ///< one past the last byte read into window_
  uint64_t read_ = 0;    ///< bytes read from the source so far
  /// Bytes the source holds: a regular file's size at Open, an in-memory
  /// capture's length, or unknown (the maximum) for a pipe.
  uint64_t size_ = UINT64_MAX;
  int fd_ = -1;          ///< the open file, or -1 (in memory, or ended)
  std::string path_;

  PcapReadOptions options_;
  bool swapped_ = false;
  bool nanosecond_ = false;
  uint32_t linktype_ = 0;
  int64_t first_ts_ns_ = -1;
  sim::Time clock_;
  uint64_t next_id_ = 1;
  PcapStats stats_;
  std::string error_;
};

struct PcapWriteOptions {
  bool big_endian = false;  ///< emit the byte-swapped magic + headers
  bool nanosecond = true;   ///< 0xa1b23c4d nanosecond-resolution magic
  bool vlan = false;        ///< wrap every frame in one 802.1Q tag
  /// Capture epoch: sim t=0 maps to this many seconds after the Unix
  /// epoch. Fixed (not wall clock) so corpus regeneration is
  /// byte-deterministic.
  int64_t epoch_base_s = 1'600'000'000;
};

class PcapWriter {
 public:
  explicit PcapWriter(PcapWriteOptions options = {});

  /// Appends one frame. `dgram.padding_bytes` becomes the snap-truncated
  /// tail: the IP/UDP headers claim payload + padding bytes, but only
  /// `payload` is stored (orig_len - incl_len = padding). Returns false and
  /// writes nothing when payload + padding exceeds the 65,507 bytes an
  /// IPv4 UDP datagram can carry: its 16-bit lengths would wrap.
  bool Add(sim::Time when, const net::Datagram& dgram);

  const std::string& bytes() const { return bytes_; }
  bool WriteFile(const std::string& path) const;

 private:
  void PutU16(uint16_t value);
  void PutU32(uint32_t value);

  PcapWriteOptions options_;
  std::string bytes_;
  uint16_t next_ip_id_ = 1;
};

}  // namespace vids::capture
