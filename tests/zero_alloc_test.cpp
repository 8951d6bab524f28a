// Steady-state allocation tests: once a call's media session is established
// and the per-endpoint pattern groups exist, inspecting an in-session RTP
// packet must not touch the heap, and under steady call or alert churn a
// sweep must neither allocate nor free. Replaying a capture file holds one
// window of it and refills the caller's batch in place. Global operator
// new/delete are replaced with counting forwarders that also track the
// largest single allocation; the counters are armed only around the
// measured code, so gtest internals and the warmup phase are free to
// allocate. The forwarders also keep the live heap (malloc's usable size of
// every block), always, against which the fact base's memory accounting is
// checked.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "capture/pcap.h"
#include "rtp/packet.h"
#include "sdp/sdp.h"
#include "sip/message.h"
#include "vids/ids.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_free_count{0};
std::atomic<size_t> g_alloc_max{0};
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  if (!g_counting.load(std::memory_order_relaxed)) return p;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  size_t seen = g_alloc_max.load(std::memory_order_relaxed);
  while (size > seen && !g_alloc_max.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  if (g_counting.load(std::memory_order_relaxed)) {
    g_free_count.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }

void* operator new[](std::size_t size) { return CountedAlloc(size); }

// GCC pairs allocation functions by body and flags free() on a pointer
// from the malloc-backed replacement operator new above — a false
// positive, as both sides of the pair are replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
#pragma GCC diagnostic pop

namespace vids::ids {
namespace {

const net::Endpoint kProxyA{net::IpAddress(10, 1, 0, 1), 5060};
const net::Endpoint kProxyB{net::IpAddress(10, 2, 0, 1), 5060};
const net::Endpoint kCallerMedia{net::IpAddress(10, 1, 0, 10), 20000};
const net::Endpoint kCalleeMedia{net::IpAddress(10, 2, 0, 10), 30000};

net::Datagram SipDgram(const sip::Message& message, net::Endpoint src,
                       net::Endpoint dst) {
  net::Datagram dgram;
  dgram.src = src;
  dgram.dst = dst;
  dgram.payload = message.Serialize();
  return dgram;
}

sip::Message MakeInvite(const std::string& call_id) {
  auto invite = sip::Message::MakeRequest(
      sip::Method::kInvite, *sip::SipUri::Parse("sip:bob@b.example.com"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bK" + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
  from.SetTag("tag-alice");
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(kCallerMedia).Serialize(),
                 "application/sdp");
  return invite;
}

sip::Message MakeOk(const sip::Message& invite) {
  auto response = sip::Message::MakeResponse(200);
  for (const auto via : invite.Headers("Via")) {
    response.AddHeader("Via", via);
  }
  response.SetFrom(*invite.From());
  auto to = *invite.To();
  to.SetTag("tag-bob");
  response.SetTo(to);
  response.SetCallId(std::string(*invite.CallId()));
  response.SetCseq(*invite.Cseq());
  response.SetBody(sdp::MakeAudioOffer(kCalleeMedia).Serialize(),
                   "application/sdp");
  return response;
}

TEST(ZeroAlloc, SteadyStateRtpInspectionDoesNotAllocate) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);

  // Establish a monitored call with negotiated media at kCalleeMedia.
  const auto invite = MakeInvite("za-1");
  vids.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  vids.Inspect(SipDgram(MakeOk(invite), kProxyB, kProxyA), false);
  auto ack = sip::Message::MakeRequest(
      sip::Method::kAck, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = "z9hG4bKackza-1";
  ack.PushVia(via);
  ack.SetCallId("za-1");
  ack.SetCseq(sip::CSeq{1, sip::Method::kAck});
  vids.Inspect(SipDgram(ack, kCallerMedia, kCalleeMedia), true);
  ASSERT_EQ(vids.fact_base().CallByMedia(kCalleeMedia), "za-1");

  // Pre-built datagram; the loop patches sequence/timestamp bytes in place
  // (RFC 3550 big-endian offsets) instead of re-serializing.
  rtp::RtpHeader header;
  header.ssrc = 0xCAFE;
  header.sequence_number = 1;
  header.timestamp = 160;
  header.payload_type = 18;
  net::Datagram dgram;
  dgram.src = kCallerMedia;
  dgram.dst = kCalleeMedia;
  dgram.payload = header.Serialize();
  const auto patch = [&dgram](uint16_t seq, uint32_t ts) {
    dgram.payload[2] = static_cast<char>(seq >> 8);
    dgram.payload[3] = static_cast<char>(seq & 0xFF);
    dgram.payload[4] = static_cast<char>(ts >> 24);
    dgram.payload[5] = static_cast<char>((ts >> 16) & 0xFF);
    dgram.payload[6] = static_cast<char>((ts >> 8) & 0xFF);
    dgram.payload[7] = static_cast<char>(ts & 0xFF);
  };

  // Warmup: settle container capacities, cross the RTP-flood threshold so
  // the flood machine parks in its (deduplicated) attack self-loop, and let
  // every lazily-compiled dispatch table build.
  uint16_t seq = 1;
  uint32_t ts = 160;
  for (int i = 0; i < 600; ++i) {
    patch(++seq, ts += 160);
    vids.Inspect(dgram, true);
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 200; ++i) {
    patch(++seq, ts += 160);
    vids.Inspect(dgram, true);
  }
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "steady-state RTP inspection touched the heap";
  EXPECT_GT(vids.stats().rtp_packets, 0u);
}

// In-dialog SIP steady state: once a dialog exists, a re-INVITE / 200 / ACK
// refresh cycle rides entirely on the lazy parse layer and reused scratch
// state — no heap traffic. This is the SIP counterpart of the RTP test
// above and the invariant BM_VidsInspectSipInDialog reports as
// allocs_per_iter.
TEST(ZeroAlloc, SteadyStateInDialogSipInspectionDoesNotAllocate) {
  sim::Scheduler scheduler;
  Vids vids(scheduler);
  const std::string call_id = "za-dlg";

  const auto make_ack = [&call_id](uint32_t cseq) {
    auto ack = sip::Message::MakeRequest(
        sip::Method::kAck, *sip::SipUri::Parse("sip:bob@b.example.com"));
    sip::Via via;
    via.sent_by = kProxyA;
    via.branch = "z9hG4bKack" + call_id;
    ack.PushVia(via);
    sip::NameAddr from;
    from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
    from.SetTag("tag-alice");
    ack.SetFrom(from);
    sip::NameAddr to;
    to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
    to.SetTag("tag-bob");
    ack.SetTo(to);
    ack.SetCallId(call_id);
    ack.SetCseq(sip::CSeq{cseq, sip::Method::kAck});
    return ack;
  };

  // Establish the dialog: INVITE / 200 / ACK.
  const auto invite = MakeInvite(call_id);
  vids.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  vids.Inspect(SipDgram(MakeOk(invite), kProxyB, kProxyA), false);
  vids.Inspect(SipDgram(make_ack(1), kProxyA, kProxyB), true);
  ASSERT_EQ(vids.fact_base().CallByMedia(kCalleeMedia), call_id);

  // Pre-serialized refresh cycle: re-INVITE with both tags and CSeq 2, its
  // 200, its ACK. The measured loop replays the same three datagrams.
  auto reinvite = MakeInvite(call_id);
  auto to = *reinvite.To();
  to.SetTag("tag-bob");
  reinvite.SetTo(to);
  reinvite.SetCseq(sip::CSeq{2, sip::Method::kInvite});
  net::Datagram cycle[3] = {
      SipDgram(reinvite, kProxyA, kProxyB),
      SipDgram(MakeOk(reinvite), kProxyB, kProxyA),
      SipDgram(make_ack(2), kProxyA, kProxyB),
  };
  const bool from_outside[3] = {true, false, true};

  // Warmup: settle string/map capacities, cross the INVITE-flood threshold
  // so its machine parks in the deduplicated attack self-loop.
  for (int i = 0; i < 600; ++i) {
    for (int p = 0; p < 3; ++p) vids.Inspect(cycle[p], from_outside[p]);
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (int i = 0; i < 200; ++i) {
    for (int p = 0; p < 3; ++p) vids.Inspect(cycle[p], from_outside[p]);
  }
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "steady-state in-dialog SIP inspection touched the heap";
  EXPECT_GT(vids.stats().sip_packets, 600u);
}

// Steady call churn through the fact base: every interval admits the calls
// the previous sweep reclaimed, each under a fresh 32-byte Call-ID with an
// SDP offer and answer (two media-index entries) and the two per-endpoint
// pattern groups its media creates. Calls idle out, their tombstones
// expire, their media groups idle out. Once warm, a sweep that reclaims
// hundreds of entries must make no allocation and no deallocation — the
// tables recycle their entries and the groups go to the free lists — and
// admitting the next interval's calls must allocate nothing either.
TEST(ZeroAlloc, FactBaseSweepUnderSteadyChurnNeitherAllocatesNorFrees) {
  DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(3);
  config.keyed_idle_timeout = sim::Duration::Seconds(2);
  config.tombstone_ttl = sim::Duration::Seconds(2);
  sim::Scheduler scheduler;
  CallStateFactBase fact_base(scheduler, config, nullptr);
  size_t reclaimed = 0;
  fact_base.set_sweep_listener(
      [&](sim::Time, std::span<const efsm::MachineGroup* const> groups) {
        reclaimed = groups.size();
        return false;  // no state of its own
      });

  constexpr size_t kCallsPerInterval = 128;
  uint64_t next_call = 0;
  char call_id[33];
  const auto admit = [&](size_t calls) {
    for (size_t i = 0; i < calls; ++i, ++next_call) {
      std::snprintf(call_id, sizeof(call_id), "churn-%026llu",
                    static_cast<unsigned long long>(next_call));
      bool created = false;
      fact_base.GetOrCreateCall(call_id, created);
      // Same-length dotted quads: a recycled group keeps its name's
      // capacity, so only a longer name than it ever held would allocate.
      const auto host = static_cast<uint8_t>(100 + next_call % 100);
      const auto port = static_cast<uint16_t>(20000 + 2 * (next_call / 100));
      const net::Endpoint offer{net::IpAddress(10, 1, 0, host), port};
      const net::Endpoint answer{net::IpAddress(10, 2, 0, host), port};
      fact_base.IndexMedia(offer, call_id);
      fact_base.IndexMedia(answer, call_id);
      fact_base.GetOrCreateMediaGroup(offer);
      fact_base.GetOrCreateMediaGroup(answer);
    }
  };

  // Admissions land right after each periodic sweep (at 0.5 s + k s), so a
  // call is reclaimed 4 sweeps after it opened, its media groups 3 sweeps
  // after, and its tombstone expires 2 sweeps after its reclaim: from the
  // sixth sweep on, each sweep reclaims one interval's calls, media groups
  // and tombstones.
  sim::Time at = sim::Time::FromNanos(500'000'000);
  scheduler.RunUntil(at);
  admit(kCallsPerInterval);
  size_t to_admit = kCallsPerInterval;
  for (int interval = 1; interval <= 12; ++interval) {
    at = at + config.sweep_interval;
    const uint64_t deleted_before = fact_base.calls_deleted();
    const size_t tombstones_before = fact_base.tombstone_count();
    const bool measured = interval >= 10;
    g_alloc_count.store(0);
    g_free_count.store(0);
    g_counting.store(measured);
    scheduler.RunUntil(at);  // the sweep
    g_counting.store(false);
    const uint64_t sweep_allocs = g_alloc_count.load();
    const uint64_t sweep_frees = g_free_count.load();
    const uint64_t calls_reclaimed = fact_base.calls_deleted() - deleted_before;
    const size_t tombstones_expired =
        tombstones_before + calls_reclaimed - fact_base.tombstone_count();
    if (calls_reclaimed != 0) to_admit = calls_reclaimed;

    g_alloc_count.store(0);
    g_free_count.store(0);
    g_counting.store(measured);
    admit(to_admit);
    g_counting.store(false);
    if (!measured) continue;
    ASSERT_GE(calls_reclaimed, 100u) << "interval " << interval;
    ASSERT_GE(reclaimed - calls_reclaimed, 100u) << "interval " << interval;
    ASSERT_GE(tombstones_expired, 100u) << "interval " << interval;
    EXPECT_EQ(sweep_allocs, 0u) << "the sweep allocated, interval " << interval;
    EXPECT_EQ(sweep_frees, 0u) << "the sweep freed, interval " << interval;
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "admitting calls allocated, interval " << interval;
    EXPECT_EQ(g_free_count.load(), 0u)
        << "admitting calls freed, interval " << interval;
  }
}

// The same steady churn with the machines running: every call group takes
// at least 40 flight records — past each chunk boundary and around the
// ring — and one SIP->RTP sync event, and every media group at least 9
// records. Rings take chunks from their shape's pool as they fill and give
// them back when the group is reset for the next call, and the sync event
// waits in the shape's one δ queue, so once warm neither a sweep nor an
// admission allocates or frees.
TEST(ZeroAlloc, FlightRingsAndSyncUnderSteadyChurnNeitherAllocateNorFree) {
  DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(3);
  config.keyed_idle_timeout = sim::Duration::Seconds(2);
  config.tombstone_ttl = sim::Duration::Seconds(2);
  sim::Scheduler scheduler;
  CallStateFactBase fact_base(scheduler, config, nullptr);

  // Every string argument fits std::string's inline buffer, so the
  // variables the machines copy out of the events hold no heap block.
  efsm::Event invite;
  invite.name = std::string(kSipEvent);
  invite.args[argkey::kKind] = std::string("request");
  invite.args[argkey::kMethod] = std::string("INVITE");
  invite.args[argkey::kCallId] = std::string("c");
  invite.args[argkey::kFromTag] = std::string("f");
  invite.args[argkey::kBranch] = std::string("z9hG4bK1");
  invite.args[argkey::kSrcIp] = std::string("10.1.0.1");
  invite.args[argkey::kDstIp] = std::string("10.2.0.1");
  invite.args[argkey::kSdpIp] = std::string("10.1.0.10");
  invite.args[argkey::kSdpPort] = int64_t{20000};
  invite.args[argkey::kSdpPt] = int64_t{0};
  invite.args[argkey::kSdpCodec] = std::string("PCMU");
  efsm::Event rtp;
  rtp.name = std::string(kRtpEvent);
  rtp.args[argkey::kSrcIp] = std::string("10.1.0.10");
  rtp.args[argkey::kSrcPort] = int64_t{20000};
  rtp.args[argkey::kDstIp] = std::string("10.2.0.10");
  rtp.args[argkey::kDstPort] = int64_t{30000};
  rtp.args[argkey::kSsrc] = int64_t{7};
  rtp.args[argkey::kPt] = int64_t{0};
  rtp.args[argkey::kMarker] = false;

  constexpr size_t kCallsPerInterval = 128;
  uint64_t next_call = 0;
  char call_id[33];
  uint64_t least_call_records = UINT64_MAX;
  uint64_t least_media_records = UINT64_MAX;
  const auto admit = [&](size_t calls) {
    for (size_t i = 0; i < calls; ++i, ++next_call) {
      std::snprintf(call_id, sizeof(call_id), "ring-%027llu",
                    static_cast<unsigned long long>(next_call));
      bool created = false;
      efsm::MachineGroup& call = fact_base.GetOrCreateCall(call_id, created);
      // The INVITE exports its offer to the RTP machine (one sync event);
      // its retransmissions are self-loops, one record each.
      for (int k = 0; k < 36; ++k) {
        call.DeliverData(call.machine(kCallSip), invite);
      }
      const auto host = static_cast<uint8_t>(100 + next_call % 100);
      const auto port = static_cast<uint16_t>(20000 + 2 * (next_call / 100));
      const net::Endpoint offer{net::IpAddress(10, 1, 0, host), port};
      const net::Endpoint answer{net::IpAddress(10, 2, 0, host), port};
      fact_base.IndexMedia(offer, call_id);
      fact_base.IndexMedia(answer, call_id);
      least_call_records = std::min(
          least_call_records, call.flight_recorder().total_recorded());
      for (const net::Endpoint& endpoint : {offer, answer}) {
        efsm::MachineGroup& media = fact_base.GetOrCreateMediaGroup(endpoint);
        for (int k = 0; k < 3; ++k) {
          rtp.args[argkey::kSeq] = static_cast<int64_t>(k + 1);
          rtp.args[argkey::kTs] = static_cast<int64_t>(160 * (k + 1));
          for (const size_t index : {kMediaSpam, kMediaRtpFlood, kMediaRtcpBye}) {
            media.DeliverData(media.machine(index), rtp);
          }
        }
        least_media_records = std::min(
            least_media_records, media.flight_recorder().total_recorded());
      }
    }
  };

  sim::Time at = sim::Time::FromNanos(500'000'000);
  scheduler.RunUntil(at);
  admit(kCallsPerInterval);
  ASSERT_EQ(fact_base.FindCall(call_id)->machine(kCallRtp).StateName(),
            std::string_view("RTP Open"))
      << "the INVITE's offer reached the RTP machine";
  size_t to_admit = kCallsPerInterval;
  for (int interval = 1; interval <= 12; ++interval) {
    at = at + config.sweep_interval;
    const uint64_t deleted_before = fact_base.calls_deleted();
    const bool measured = interval >= 10;
    g_alloc_count.store(0);
    g_free_count.store(0);
    g_counting.store(measured);
    scheduler.RunUntil(at);  // the sweep
    g_counting.store(false);
    const uint64_t sweep_allocs = g_alloc_count.load();
    const uint64_t sweep_frees = g_free_count.load();
    const uint64_t calls_reclaimed = fact_base.calls_deleted() - deleted_before;
    if (calls_reclaimed != 0) to_admit = calls_reclaimed;

    least_call_records = least_media_records = UINT64_MAX;
    g_alloc_count.store(0);
    g_free_count.store(0);
    g_counting.store(measured);
    admit(to_admit);
    g_counting.store(false);
    if (!measured) continue;
    ASSERT_GE(calls_reclaimed, 100u) << "interval " << interval;
    ASSERT_GE(least_call_records, 40u) << "interval " << interval;
    ASSERT_GE(least_media_records, 9u) << "interval " << interval;
    EXPECT_EQ(sweep_allocs, 0u) << "the sweep allocated, interval " << interval;
    EXPECT_EQ(sweep_frees, 0u) << "the sweep freed, interval " << interval;
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "admitting calls allocated, interval " << interval;
    EXPECT_EQ(g_free_count.load(), 0u)
        << "admitting calls freed, interval " << interval;
  }
}

// One established call (INVITE with an SDP offer, 200 with the answer, ACK)
// between caller and callee AOR `index % 10`, under a Call-ID too long for
// std::string's inline buffer.
void EstablishCall(Vids& vids, int index) {
  char call_id[32];
  std::snprintf(call_id, sizeof(call_id), "acct-%06d@example.com", index);
  const std::string caller =
      "sip:caller-" + std::to_string(index % 10) + "@a.example.com";
  const std::string callee =
      "sip:callee-" + std::to_string(index % 10) + "@b.example.com";
  const auto port = static_cast<uint16_t>(20000 + 2 * (index % 20000));
  auto invite = sip::Message::MakeRequest(sip::Method::kInvite,
                                          *sip::SipUri::Parse(callee));
  sip::Via via;
  via.sent_by = kProxyA;
  via.branch = std::string("z9hG4bK") + call_id;
  invite.PushVia(via);
  sip::NameAddr from;
  from.uri = *sip::SipUri::Parse(caller);
  from.SetTag("tag-caller");
  invite.SetFrom(from);
  sip::NameAddr to;
  to.uri = *sip::SipUri::Parse(callee);
  invite.SetTo(to);
  invite.SetCallId(call_id);
  invite.SetCseq(sip::CSeq{1, sip::Method::kInvite});
  invite.SetBody(sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 1, 0, 10),
                                                   port})
                     .Serialize(),
                 "application/sdp");
  vids.Inspect(SipDgram(invite, kProxyA, kProxyB), true);
  auto ok = sip::Message::MakeResponse(200);
  for (const auto hop : invite.Headers("Via")) ok.AddHeader("Via", hop);
  ok.SetFrom(from);
  to.SetTag("tag-callee");
  ok.SetTo(to);
  ok.SetCallId(call_id);
  ok.SetCseq(*invite.Cseq());
  ok.SetBody(sdp::MakeAudioOffer(net::Endpoint{net::IpAddress(10, 2, 0, 10),
                                               port})
                 .Serialize(),
             "application/sdp");
  vids.Inspect(SipDgram(ok, kProxyB, kProxyA), false);
  auto ack = sip::Message::MakeRequest(sip::Method::kAck,
                                       *sip::SipUri::Parse(callee));
  via.branch = std::string("z9hG4bKack") + call_id;
  ack.PushVia(via);
  ack.SetFrom(from);
  ack.SetTo(to);
  ack.SetCallId(call_id);
  ack.SetCseq(sip::CSeq{1, sip::Method::kAck});
  vids.Inspect(SipDgram(ack, kProxyA, kProxyB), true);
}

// The fact base's memory accounting follows the heap. 5,000 established
// calls arrive through Vids at 10 per simulated second, spread over 10
// caller and 10 callee AORs so that no detector fires; the growth of
// fact_base().MemoryBytes() must stay within 15 % of the growth of the live
// heap (the usable size of every block operator new handed out). Once the
// calls idle out and the fact base drains, both must be back within 4 KB of
// where they started. A pool, queue or buffer that MemoryBytes() leaves
// out — and so does perfbench's fact_base.state_mb_peak — shows up as a
// gap. A first round runs and drains before the measured one, so what
// lives outside the fact base and keeps its capacity (the scheduler's
// slots, Vids's scratch) is at its peak before the baseline is taken.
TEST(MemoryAccounting, FactBaseBytesFollowTheLiveHeap) {
  DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(1000);
  sim::Scheduler scheduler;
  Vids vids(scheduler, config);
  constexpr int kCalls = 5000;
  const sim::Duration gap = sim::Duration::Millis(100);
  int next = 0;
  const auto run_calls = [&] {
    for (int i = 0; i < kCalls; ++i, ++next) {
      scheduler.RunUntil(scheduler.Now() + gap);
      EstablishCall(vids, next);
    }
  };
  const auto drain = [&] {
    scheduler.RunUntil(scheduler.Now() + config.call_idle_timeout +
                       config.tombstone_ttl + sim::Duration::Seconds(300));
    ASSERT_EQ(vids.fact_base().call_count(), 0u);
    ASSERT_EQ(vids.fact_base().tombstone_count(), 0u);
    ASSERT_EQ(vids.fact_base().keyed_count(), 0u);
  };

  run_calls();
  drain();
  const int64_t heap_start = g_live_bytes.load();
  const auto fact_start = static_cast<int64_t>(vids.fact_base().MemoryBytes());

  run_calls();
  ASSERT_EQ(vids.fact_base().call_count(), static_cast<size_t>(kCalls));
  ASSERT_TRUE(vids.alerts().empty()) << vids.alerts().front().classification;
  const int64_t heap_grew = g_live_bytes.load() - heap_start;
  const int64_t fact_grew =
      static_cast<int64_t>(vids.fact_base().MemoryBytes()) - fact_start;
  std::printf("5000 calls: live heap +%lld B, fact base +%lld B (%.3f)\n",
              static_cast<long long>(heap_grew),
              static_cast<long long>(fact_grew),
              static_cast<double>(fact_grew) / static_cast<double>(heap_grew));
  EXPECT_GE(fact_grew, heap_grew * 85 / 100);
  EXPECT_LE(fact_grew, heap_grew * 115 / 100);

  drain();
  const int64_t heap_left = g_live_bytes.load() - heap_start;
  const int64_t fact_left =
      static_cast<int64_t>(vids.fact_base().MemoryBytes()) - fact_start;
  EXPECT_LE(std::abs(heap_left), 4096) << "live heap after the drain";
  EXPECT_LE(std::abs(fact_left), 4096) << "fact base after the drain";
}

// A steady stream of distinct deviation alerts: each dialog-less BYE under
// a fresh Call-ID opens a call group and raises one deviation, planting one
// dedup signature. Two batches arrive per sweep interval, right after a
// sweep and half an interval later, so a sweep expires the signatures of
// the two batches whose window has passed while the latest batch's stay
// live (a table emptied by a sweep is released, like a drained fact base). The calls idle out and their
// tombstones expire. Once warm, the timer-driven sweep that expires
// signatures and reclaims calls must make no allocation and no
// deallocation; the alerts themselves, raised between sweeps, may allocate.
TEST(ZeroAlloc, AlertSignatureExpiryNeitherAllocatesNorFrees) {
  DetectionConfig config;
  config.call_idle_timeout = sim::Duration::Seconds(3);
  config.tombstone_ttl = sim::Duration::Seconds(2);
  sim::Scheduler scheduler;
  Vids vids(scheduler, config);

  constexpr int kPerBatch = 32;
  uint64_t next_call = 0;
  char call_id[25];
  const auto batch = [&] {
    for (int i = 0; i < kPerBatch; ++i, ++next_call) {
      std::snprintf(call_id, sizeof(call_id), "sig-%020llu",
                    static_cast<unsigned long long>(next_call));
      auto bye = sip::Message::MakeRequest(
          sip::Method::kBye, *sip::SipUri::Parse("sip:bob@10.2.0.10"));
      sip::Via via;
      via.sent_by = kProxyA;
      via.branch = std::string("z9hG4bK") + call_id;
      bye.PushVia(via);
      sip::NameAddr from;
      from.uri = *sip::SipUri::Parse("sip:alice@a.example.com");
      from.SetTag("tag-alice");
      bye.SetFrom(from);
      sip::NameAddr to;
      to.uri = *sip::SipUri::Parse("sip:bob@b.example.com");
      to.SetTag("tag-bob");
      bye.SetTo(to);
      bye.SetCallId(call_id);
      bye.SetCseq(sip::CSeq{2, sip::Method::kBye});
      vids.Inspect(SipDgram(bye, kProxyA, kProxyB), true);
    }
  };

  const sim::Duration half = sim::Duration::Millis(500);
  sim::Time at = sim::Time::FromNanos(500'000'000);
  scheduler.RunUntil(at);
  for (int interval = 1; interval <= 12; ++interval) {
    batch();
    scheduler.RunUntil(at + half);
    batch();
    at = at + config.sweep_interval;
    const size_t sigs_before = vids.alert_sig_count();
    const uint64_t deleted_before = vids.fact_base().calls_deleted();
    const bool measured = interval >= 9;
    g_alloc_count.store(0);
    g_free_count.store(0);
    g_counting.store(measured);
    scheduler.RunUntil(at);  // the sweep
    g_counting.store(false);
    if (!measured) continue;
    ASSERT_EQ(sigs_before, 3u * kPerBatch) << "interval " << interval;
    ASSERT_EQ(vids.alert_sig_count(), static_cast<size_t>(kPerBatch))
        << "interval " << interval;
    ASSERT_GT(vids.fact_base().calls_deleted(), deleted_before)
        << "interval " << interval;
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "the sweep allocated, interval " << interval;
    EXPECT_EQ(g_free_count.load(), 0u)
        << "the sweep freed, interval " << interval;
  }
  EXPECT_EQ(vids.alerts().size(), 12u * 2 * kPerBatch);
}

// Writes `writer`'s capture under the test temp dir; returns its path.
std::string WriteTempCapture(const capture::PcapWriter& writer,
                             const char* name) {
  const std::string path = testing::TempDir() + name;
  EXPECT_TRUE(writer.WriteFile(path)) << path;
  return path;
}

// Replay refills the caller's batch in place: once every slot has held its
// payload, pulling a full batch of SIP-sized datagrams from a capture file
// neither allocates nor frees, across window refills too. Each slot sees
// one payload size, as a steady capture's slots settle on their largest.
TEST(ZeroAlloc, PcapPullBatchRefillsInPlace) {
  constexpr size_t kBatch = 64;
  constexpr size_t kBatches = 60;  // about three windows
  capture::PcapWriter writer;
  for (size_t i = 0; i < kBatch * kBatches; ++i) {
    net::Datagram dgram;
    dgram.src = kProxyA;
    dgram.dst = kProxyB;
    dgram.payload.assign(400 + (i % kBatch) * 11, 'S');
    writer.Add(sim::Time::FromNanos(static_cast<int64_t>(i) * 1000), dgram);
  }
  ASSERT_GT(writer.bytes().size(), 2 * capture::PcapFileSource::kWindowBytes);
  const std::string path = WriteTempCapture(writer, "zero_alloc_pull.pcap");
  const auto source = capture::PcapFileSource::Open(path);
  std::vector<capture::TimedPacket> batch;
  batch.reserve(kBatch);
  ASSERT_EQ(source->PullBatch(batch, kBatch), kBatch);  // slots take payloads

  for (size_t b = 1; b < kBatches; ++b) {
    g_alloc_count.store(0);
    g_free_count.store(0);
    g_counting.store(true);
    const size_t n = source->PullBatch(batch, kBatch);
    g_counting.store(false);
    ASSERT_EQ(n, kBatch) << "batch " << b;
    EXPECT_EQ(g_alloc_count.load(), 0u) << "batch " << b << " allocated";
    EXPECT_EQ(g_free_count.load(), 0u) << "batch " << b << " freed";
    EXPECT_EQ(batch.back().dgram.payload.size(), 400 + (kBatch - 1) * 11);
  }
  EXPECT_EQ(source->PullBatch(batch, kBatch), 0u);
  EXPECT_TRUE(source->ok()) << source->error();
  std::remove(path.c_str());
}

// Opening and draining a capture of eight windows holds one window of it:
// no single allocation, from Open to end of stream, exceeds kWindowBytes.
TEST(ZeroAlloc, PcapOpenHoldsOneWindow) {
  constexpr size_t kWindow = capture::PcapFileSource::kWindowBytes;
  capture::PcapWriter writer;
  uint64_t written = 0;
  while (writer.bytes().size() < 8 * kWindow + 4096) {
    // An ordinary mix: four 172-byte RTP packets to one SIP-sized message.
    net::Datagram dgram;
    dgram.src = written % 5 == 0 ? kProxyA : kCallerMedia;
    dgram.dst = written % 5 == 0 ? kProxyB : kCalleeMedia;
    dgram.payload.assign(written % 5 == 0 ? 700 : 172, 'x');
    writer.Add(sim::Time::FromNanos(static_cast<int64_t>(written) * 20'000),
               dgram);
    ++written;
  }
  const std::string path = WriteTempCapture(writer, "zero_alloc_open.pcap");
  g_alloc_max.store(0);
  g_counting.store(true);
  const auto source = capture::PcapFileSource::Open(path);
  std::vector<capture::TimedPacket> batch;
  uint64_t delivered = 0;
  while (const size_t n = source->PullBatch(batch, 64)) delivered += n;
  g_counting.store(false);
  EXPECT_TRUE(source->ok()) << source->error();
  EXPECT_EQ(delivered, written);
  EXPECT_LE(g_alloc_max.load(), kWindow)
      << "an allocation outgrew the window on an "
      << writer.bytes().size() << "-byte capture";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vids::ids
