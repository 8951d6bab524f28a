// The checked-in pcap corpus, generated — never hand-edited.
//
// Eight deterministic captures exercise the wire-ingress path end to end:
//   clean_calls.pcap    — complete SIP calls with two-way RTP (LE, ns)
//   invite_flood.pcap   — clean background + an INVITE flood burst that
//                         must raise exactly one aggregate alert (BE, µs:
//                         the byte-swapped reader path rides through CI)
//   torn_truncated.pcap — wire-realistic malformed input: snaplen-torn
//                         SIP, Content-Length overruns, LF-only framing,
//                         compact-form final unterminated headers,
//                         truncated RTP, empty payloads (LE, ns, VLAN-
//                         tagged so the 802.1Q skip path is exercised)
//   spit_burst.pcap     — protocol-legal SPIT: one caller blasting short
//                         clean calls at distinct victims; only the
//                         behavioral call-rate profile raises (LE, ns)
//   reg_cracking.pcap   — distributed registration cracking: clean
//                         REGISTER/401 exchanges against one account from
//                         many sources; only the behavioral failed-auth
//                         streak raises (LE, ns)
//   toll_fraud.pcap     — low-and-slow toll-fraud fan-out: clean calls to
//                         distinct premium AORs, paced under every rate
//                         threshold; only the behavioral 60 s destination
//                         fan-out window raises (LE, ns)
//   rtcp_lookalike.pcap — clean calls, each with one RTP packet whose
//                         second byte falls in RTCP's 200..204 range but
//                         which ParseRtcp rejects: the sharded router must
//                         send it to the call's shard, not to the owner of
//                         port - 1 (LE, ns)
//   media_level_sdp.pcap — clean calls whose SDP puts c= after m=audio
//                         (some with a session-level decoy c=), each with
//                         one non-negotiated PCMU packet: the sharded
//                         router must claim the endpoint the classifier
//                         exports, or the media misses the call's shard
//                         (LE, ns)
//
// tools/make_corpus writes these to tests/corpus/; CI regenerates and
// byte-compares them so the checked-in files can never drift from this
// generator, then replays them through 1-shard and 4-shard engines with
// an alert-count equality gate. The three behavioral captures must each
// raise exactly one kBehavior alert and zero spec-machine alerts — that
// asymmetry is the CI proof of the layer's reason to exist. Everything
// here is fixed-seed and fixed-epoch: regeneration is byte-identical on
// every platform.
#pragma once

#include <string>
#include <vector>

#include "net/address.h"

namespace vids::capture::corpus {

struct CorpusFile {
  std::string name;   ///< file name, e.g. "clean_calls.pcap"
  std::string bytes;  ///< complete pcap savefile contents
};

/// Builds all corpus captures, in a fixed order.
std::vector<CorpusFile> BuildAll();

/// The protected-perimeter subnet for replaying this corpus: the callee /
/// proxy-B side (10.2.0.0/16). Sources inside it are from_outside=false,
/// matching the simulator's tap-direction convention (caller side and
/// attackers are "outside").
net::Subnet InsideSubnet();

}  // namespace vids::capture::corpus
