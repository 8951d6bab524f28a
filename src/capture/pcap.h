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
// The writer emits one UDP/IPv4/Ethernet frame per datagram with MACs
// derived from the IPs, in either byte order, so recordings, the corpus
// (tools/make_corpus) and the round-trip tests are deterministic captures.
// A frame does not carry the tap direction: the reader derives it from
// `PcapReadOptions::inside`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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
};

/// A pull-batch iterator over the capture's UDP datagrams, and the owner
/// of the stream's logical clock (DESIGN.md §14):
///  - PullBatch appends up to `max` packets to `out` (cleared first) and
///    returns how many it delivered. 0 means end of stream — permanently;
///    callers must not retry.
///  - Timestamps are non-decreasing across the whole stream (a backward
///    record is clamped to the stream clock). Ties are delivered in capture
///    order.
///  - `out` is caller-owned scratch: drivers reuse one vector across calls
///    so steady-state replay runs without per-batch allocation.
///  - `clock()` is the highest timestamp the source vouches for, so a
///    driver that has drained the source may advance its scheduler to
///    `clock()` and know that every TTL sweep, aggregate window and
///    watchdog deadline it fires is consistent with the traffic it saw.
///  - `error()` is empty while the stream is healthy. A framing or I/O
///    fault sets it to a description naming the offending record, the
///    packets decoded before the fault are delivered, and PullBatch then
///    returns 0. EOF with an empty error() is a clean end of capture.
class PcapFileSource {
 public:
  /// Parses the global header eagerly; on a bad header the source is
  /// created with error() set and yields nothing.
  explicit PcapFileSource(std::string bytes, PcapReadOptions options = {});

  /// Reads `path` into memory. An unreadable file yields a source with
  /// error() set (uniform handling with in-stream faults).
  static std::unique_ptr<PcapFileSource> Open(const std::string& path,
                                              PcapReadOptions options = {});

  size_t PullBatch(std::vector<TimedPacket>& out, size_t max);
  sim::Time clock() const { return clock_; }
  const std::string& error() const { return error_; }
  bool ok() const { return error_.empty(); }

  const PcapStats& stats() const { return stats_; }
  bool nanosecond() const { return nanosecond_; }
  bool swapped() const { return swapped_; }
  uint32_t linktype() const { return linktype_; }

 private:
  /// Decodes records until one UDP packet materializes. Returns false at
  /// end of stream (clean EOF or fault — error_ distinguishes).
  bool DecodeNext(TimedPacket& out);

  uint32_t ReadU32(size_t offset) const;
  uint16_t ReadU16(size_t offset) const;

  std::string data_;
  PcapReadOptions options_;
  size_t offset_ = 0;
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
