// Lazy-vs-full parser parity: LazyMessage::Index must accept exactly the
// inputs Message::Parse accepts, and on acceptance every observable — header
// table, first-value lookups, typed Via/From/To/CSeq views, start line,
// body clamping — must agree with the materialized Message. The property is
// pinned over a handcrafted corpus (compact forms, folded Vias, bare-LF,
// adversarial rejects), a generated-message corpus, and random mutations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "sdp/sdp.h"
#include "sip/lazy_message.h"
#include "sip/message.h"

namespace vids::sip {
namespace {

using common::Stream;

// Materializes a ParamList the way the mutable codec does: lowercased keys,
// last occurrence wins. `drop` skips one key (Via::Parse pulls "branch" out
// of the map; ViaView keeps it in the list).
std::map<std::string, std::string> ToMap(const ParamList& params,
                                         std::string_view drop = {}) {
  std::map<std::string, std::string> out;
  for (size_t i = 0; i < params.size(); ++i) {
    std::string key(params[i].name);
    common::AsciiLowerInPlace(key);
    if (!drop.empty() && key == drop) continue;
    out.insert_or_assign(std::move(key), std::string(params[i].value));
  }
  return out;
}

void ExpectUriParity(const UriView& lazy, const SipUri& full,
                     const std::string& wire) {
  EXPECT_EQ(lazy.user, full.user) << wire;
  EXPECT_EQ(lazy.host, full.host) << wire;
  EXPECT_EQ(lazy.port, full.port) << wire;
  EXPECT_EQ(lazy.params, full.params) << wire;
}

void ExpectNameAddrParity(const NameAddrView* lazy,
                          const std::optional<NameAddr>& full,
                          const std::string& wire) {
  ASSERT_EQ(lazy != nullptr, full.has_value()) << wire;
  if (lazy == nullptr) return;
  EXPECT_EQ(lazy->display_name, full->display_name) << wire;
  ExpectUriParity(lazy->uri, full->uri, wire);
  EXPECT_EQ(ToMap(lazy->params), full->params) << wire;
  const auto lazy_tag = lazy->Tag();
  const auto full_tag = full->Tag();
  ASSERT_EQ(lazy_tag.has_value(), full_tag.has_value()) << wire;
  if (lazy_tag.has_value()) {
    EXPECT_EQ(*lazy_tag, *full_tag) << wire;
  }
}

// The parity property itself: both parsers agree on acceptance, and on
// acceptance every observable agrees.
void ExpectParity(const std::string& wire) {
  LazyMessage lazy;
  const bool lazy_ok = lazy.Index(wire);
  const auto full = Message::Parse(wire);
  ASSERT_EQ(lazy_ok, full.has_value()) << "acceptance disagrees on:\n"
                                       << wire;
  if (!lazy_ok) return;

  // Start line.
  EXPECT_EQ(lazy.IsRequest(), full->IsRequest()) << wire;
  EXPECT_EQ(lazy.method(), full->method()) << wire;
  EXPECT_EQ(lazy.status(), full->status()) << wire;
  if (lazy.IsRequest()) {
    ExpectUriParity(lazy.request_uri(), full->request_uri(), wire);
  } else {
    EXPECT_EQ(lazy.reason(), full->reason()) << wire;
  }

  // Header table: same cardinality, and per name the same value sequence.
  ASSERT_EQ(lazy.HeaderCount(), full->HeaderCount()) << wire;
  for (size_t i = 0; i < lazy.HeaderCount(); ++i) {
    const auto& entry = lazy.HeaderAt(i);
    std::vector<std::string_view> lazy_values;
    for (size_t j = 0; j < lazy.HeaderCount(); ++j) {
      const auto& other = lazy.HeaderAt(j);
      const bool same_name = entry.id != HeaderId::kOther
                                 ? other.id == entry.id
                                 : other.id == HeaderId::kOther &&
                                       common::IEquals(other.name, entry.name);
      if (same_name) lazy_values.push_back(other.value);
    }
    const auto full_values = full->Headers(entry.name);
    ASSERT_EQ(lazy_values.size(), full_values.size())
        << wire << "\nheader: " << entry.name;
    for (size_t j = 0; j < lazy_values.size(); ++j) {
      EXPECT_EQ(lazy_values[j], full_values[j]) << wire;
    }
    EXPECT_EQ(lazy.Header(entry.name), full->Header(entry.name)) << wire;
  }

  // Body (Content-Length clamping included) and Call-ID.
  EXPECT_EQ(lazy.body(), full->body()) << wire;
  EXPECT_EQ(lazy.CallId(), full->CallId()) << wire;

  // CSeq.
  const auto full_cseq = full->Cseq();
  ASSERT_EQ(lazy.Cseq() != nullptr, full_cseq.has_value()) << wire;
  if (const auto* cseq = lazy.Cseq()) {
    EXPECT_EQ(cseq->number, full_cseq->number) << wire;
    EXPECT_EQ(cseq->method, full_cseq->method) << wire;
  }

  // Top Via: agreement on presence/decodability, then field parity. The
  // view keeps "branch" in its param list; the map drops it.
  const auto full_via = full->TopVia();
  const auto* lazy_via = lazy.TopVia();
  ASSERT_EQ(lazy_via != nullptr, full_via.has_value()) << wire;
  if (lazy_via != nullptr) {
    EXPECT_EQ(lazy_via->transport, full_via->transport) << wire;
    EXPECT_EQ(lazy_via->sent_by, full_via->sent_by) << wire;
    EXPECT_EQ(lazy_via->branch, full_via->branch) << wire;
    EXPECT_EQ(ToMap(lazy_via->params, "branch"), full_via->params) << wire;
  }

  ExpectNameAddrParity(lazy.From(), full->From(), wire);
  ExpectNameAddrParity(lazy.To(), full->To(), wire);
}

TEST(SipLazyParity, HandcraftedValidCorpus) {
  const std::string corpus[] = {
      // Minimal request / response.
      "INVITE sip:bob@b.example.com SIP/2.0\r\n\r\n",
      "SIP/2.0 200 OK\r\n\r\n",
      "SIP/2.0 180 Ringing\r\nCSeq: 7 INVITE\r\n\r\n",
      "SIP/2.0 200\r\n\r\n",  // empty reason
      // Compact header forms (RFC 3261 §7.3.3).
      "INVITE sip:b@h SIP/2.0\r\n"
      "i: call-1\r\n"
      "f: <sip:a@x>;tag=t1\r\n"
      "t: sip:b@h\r\n"
      "v: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK1\r\n"
      "m: <sip:a@10.0.0.2>\r\n"
      "c: application/sdp\r\n"
      "l: 0\r\n\r\n",
      // Folded multi-Via: comma-separated values unfold to entries.
      "BYE sip:b@h SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.1:5060;branch=a, SIP/2.0/TCP 10.0.0.2:5062\r\n"
      "Via: SIP/2.0/UDP 10.0.0.3\r\n\r\n",
      // Empty comma pieces are kept (and later fail Via decode, in parity).
      "OPTIONS sip:b@h SIP/2.0\r\nVia: ,SIP/2.0/UDP 1.2.3.4,\r\n\r\n",
      "OPTIONS sip:b@h SIP/2.0\r\nVia:\r\n\r\n",
      // Bare-LF line endings and the "\n\n" body split.
      "REGISTER sip:h SIP/2.0\nCall-ID: lf-1\nCSeq: 1 REGISTER\n\nbody",
      // Head with no body separator at all.
      "ACK sip:b@h SIP/2.0\r\nCall-ID: nb-1",
      // Unknown method and unknown headers (word-capitalized by the codec).
      "NOTIFY sip:b@h SIP/2.0\r\nx-custom-header: zig\r\nX-CUSTOM-HEADER: "
      "zag\r\n\r\n",
      // Odd whitespace around names and values.
      "INVITE sip:b@h SIP/2.0\r\n  Subject  :   hello world  \r\n"
      "Blank:\r\n\r\n",
      // Name-addr shapes: quoted display, bare addr-spec with URI params,
      // flag params, parameter case folding, duplicate keys (last wins).
      "INVITE sip:b@h SIP/2.0\r\n"
      "From: \"Alice Q\" <sip:alice@a.com:5070;user=phone>;tag=abc;flag\r\n"
      "To: sip:bob@b.com;tag=one;TAG=two\r\n"
      "Contact: Bob <sip:bob@10.0.0.9:5080>;q=0.7\r\n\r\n",
      // Present-but-empty tag is distinct from absent.
      "INVITE sip:b@h SIP/2.0\r\nFrom: <sip:a@x>;tag=\r\nTo: <sip:b@y>\r\n\r\n",
      // URI edge: empty user, params, no '@'.
      "INVITE sip:h.example.com;transport=udp SIP/2.0\r\n\r\n",
      "INVITE sip::5060 SIP/2.0\r\n\r\n",
      // Via without port (defaults 5060) and with extra params.
      "INVITE sip:b@h SIP/2.0\r\n"
      "Via: SIP/2.0/TCP 10.1.1.1;received=1.2.3.4;rport=5061;branch=z9\r\n\r\n",
      // Via whose value does not decode (both typed views must agree).
      "INVITE sip:b@h SIP/2.0\r\nVia: SIP/3.0/UDP 10.0.0.1\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\nVia: SIP/2.0/UDP not-an-ip\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\nFrom: <sip:a@x\r\n\r\n",  // unclosed <
      // Response with no CSeq (method() falls back to kUnknown).
      "SIP/2.0 486 Busy Here\r\nCall-ID: r-1\r\n\r\n",
      // Content-Length clamps the body; multiple CSeq (first one rules).
      "INVITE sip:b@h SIP/2.0\r\nContent-Length: 4\r\n\r\nbodyEXTRA",
      "INVITE sip:b@h SIP/2.0\r\nContent-Length: 0\r\n\r\nignored",
      "INVITE sip:b@h SIP/2.0\r\nCSeq: 1 INVITE\r\nCSeq: 2 BYE\r\n\r\n",
      // Blank lines inside the head are skipped.
      "INVITE sip:b@h SIP/2.0\r\n\r\nVia: SIP/2.0/UDP 1.2.3.4\r\n",
  };
  for (const auto& wire : corpus) ExpectParity(wire);
}

TEST(SipLazyParity, HandcraftedRejectCorpus) {
  const std::string corpus[] = {
      "",
      "\r\n",
      "\r\n\r\n",
      "INVITE sip:b@h\r\n\r\n",             // missing SIP version
      "INVITE sip:b@h SIP/2.1\r\n\r\n",     // wrong version
      "INVITE sip:b@h sip/2.0\r\n\r\n",     // version is case-sensitive
      "INVITE  sip:b@h SIP/2.0\r\n\r\n",    // doubled space -> empty piece
      "INVITE sip:b@h SIP/2.0 x\r\n\r\n",   // four pieces
      "INVITE http://b SIP/2.0\r\n\r\n",    // non-sip URI scheme
      "INVITE sip:b@h:70000 SIP/2.0\r\n\r\n",  // port overflow
      "INVITE sip:b@h:xx SIP/2.0\r\n\r\n",     // non-numeric port
      "INVITE sip:b@ SIP/2.0\r\n\r\n",         // empty host after '@'
      "SIP/2.0 99 Low\r\n\r\n",                // status below 100
      "SIP/2.0 700 High\r\n\r\n",              // status above 699
      "SIP/2.0 abc Bad\r\n\r\n",               // non-numeric status
      "INVITE sip:b@h SIP/2.0\r\nNoColonHere\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\nCSeq: x INVITE\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\nCSeq: 1 NOTIFY\r\n\r\n",  // unknown method
      "INVITE sip:b@h SIP/2.0\r\nCSeq: 1\r\n\r\n",         // missing method
      "INVITE sip:b@h SIP/2.0\r\nCSeq: -1 INVITE\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\nContent-Length: nan\r\n\r\nx",
      "INVITE sip:b@h SIP/2.0\r\nContent-Length: -3\r\n\r\nx",
      "INVITE sip:b@h SIP/2.0\r\nContent-Length: 10\r\n\r\nshort",  // truncated
      "INVITE sip:b@h SIP/2.0\r\nl: 10\r\n\r\nshort",  // compact form too
  };
  for (const auto& wire : corpus) ExpectParity(wire);
}

// RFC 3261 methods and header names are tokens (§25.1). Binary garbage
// before " sip:x@y SIP/2.0", or a header name with a space or '@', is not
// SIP: both parsers reject it. Every token character is accepted.
TEST(SipLazyGrammar, MethodsAndHeaderNamesMustBeTokens) {
  const std::string rejects[] = {
      std::string("\x01NVITE sip:b@h SIP/2.0\r\n\r\n"),  // control byte
      std::string("\x7FNVITE sip:b@h SIP/2.0\r\n\r\n"),  // DEL
      std::string("\xC3\xA9NVITE sip:b@h SIP/2.0\r\n\r\n"),
      std::string("\xFFNVITE sip:b@h SIP/2.0\r\n\r\n"),
      std::string("\x80PTIONS sip:b@h SIP/2.0\r\n\r\n"),  // RTP's byte
      std::string("IN\tVITE sip:b@h SIP/2.0\r\n\r\n"),
      "INVITE sip:b@h SIP/2.0\r\nCall ID: x\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\nCall@ID: x\r\n\r\n",
      "INVITE sip:b@h SIP/2.0\r\n: x\r\n\r\n",  // empty name
      std::string("SIP/2.0 200 OK\r\nX-\x01: x\r\n\r\n"),
  };
  LazyMessage lazy;
  for (const auto& wire : rejects) {
    EXPECT_FALSE(lazy.Index(wire)) << ::testing::PrintToString(wire);
    ExpectParity(wire);
  }
  const std::string token = "Az09-.!%*_+`'~";
  const std::string accepted =
      token + " sip:b@h SIP/2.0\r\n" + token + ": x\r\n\r\n";
  ASSERT_TRUE(lazy.Index(accepted));
  EXPECT_EQ(lazy.method_token(), token);
  ExpectParity(accepted);
}

TEST(SipLazyParity, WireRealisticFramingCorpus) {
  // Inputs a tap actually sees (the torn_truncated pcap corpus replays
  // these same shapes end to end): LF-only framing, unterminated final
  // header lines, Content-Length overruns, binary bodies.
  const std::string corpus[] = {
      // No trailing CRLF after the last header.
      "OPTIONS sip:b@h SIP/2.0\r\nCall-ID: nocrlf",
      // Compact-form header as the final, unterminated line.
      "OPTIONS sip:b@h SIP/2.0\r\n"
      "v: SIP/2.0/UDP 10.9.0.66:5060;branch=z9hG4bKco\r\n"
      "i:compact-1",
      // Content-Length far past the end of the captured buffer.
      "INVITE sip:b@h SIP/2.0\r\nCall-ID: overrun\r\nCSeq: 1 INVITE\r\n"
      "Content-Length: 9999\r\n\r\nshort",
      // CRLF-framed head with an LF-only blank line inside the body.
      "OPTIONS sip:b@h SIP/2.0\r\nCall-ID: crlf-head\r\n"
      "Content-Length: 8\r\n\r\nAB\n\nCD!!",
  };
  for (const auto& wire : corpus) ExpectParity(wire);
}

TEST(SipLazyParity, LfFramedHeadSplitsAtFirstBlankLine) {
  // An LF-framed message whose binary body happens to contain \r\n\r\n:
  // the head/body split must take the earlier blank line (the LF one),
  // not extend the head into the body hunting for CRLFCRLF. Before the
  // fix this mis-framed: the headers swallowed "AB" and the message was
  // spuriously rejected on the Content-Length check.
  const std::string wire =
      "OPTIONS sip:bob@b.example.com SIP/2.0\n"
      "Via: SIP/2.0/UDP 10.9.0.66:5060;branch=z9hG4bKlf\n"
      "Call-ID: lf-framed-1\n"
      "CSeq: 1 OPTIONS\n"
      "Content-Length: 8\n"
      "\n"
      "AB\r\n\r\nCD";
  ExpectParity(wire);
  LazyMessage lazy;
  ASSERT_TRUE(lazy.Index(wire));
  EXPECT_EQ(lazy.body(), "AB\r\n\r\nCD");
  EXPECT_EQ(lazy.HeaderCount(), 4u);
  EXPECT_EQ(lazy.CallId(), "lf-framed-1");

  // Mirror image: CRLF blank line first, \n\n later in the body.
  const std::string mirror =
      "OPTIONS sip:bob@b.example.com SIP/2.0\r\n"
      "Call-ID: crlf-framed-1\r\n"
      "Content-Length: 8\r\n"
      "\r\n"
      "AB\n\nCD!!";
  ExpectParity(mirror);
  LazyMessage mirror_lazy;
  ASSERT_TRUE(mirror_lazy.Index(mirror));
  EXPECT_EQ(mirror_lazy.body(), "AB\n\nCD!!");
}

TEST(SipLazyParity, CapacityOverflowStaysCorrect) {
  // More headers than the inline span table (32) and more parameters than
  // the inline param list (8): the overflow paths must stay in parity.
  std::string wire = "INVITE sip:b@h SIP/2.0\r\n";
  for (int i = 0; i < 40; ++i) {
    wire += "X-Pad-" + std::to_string(i) + ": v" + std::to_string(i) + "\r\n";
  }
  wire += "From: <sip:a@x>";
  for (int i = 0; i < 12; ++i) {
    wire += ";p" + std::to_string(i) + "=" + std::to_string(i);
  }
  wire += ";tag=deep\r\n\r\n";
  ExpectParity(wire);

  LazyMessage lazy;
  ASSERT_TRUE(lazy.Index(wire));
  EXPECT_EQ(lazy.HeaderCount(), 41u);
  ASSERT_NE(lazy.From(), nullptr);
  EXPECT_EQ(lazy.From()->params.size(), 13u);
  EXPECT_EQ(lazy.From()->Tag(), "deep");
}

TEST(SipLazyParity, MemoizationReturnsSameViewAndReindexResets) {
  LazyMessage lazy;
  ASSERT_TRUE(lazy.Index(
      "INVITE sip:b@h SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.1:5062;branch=z9hG4bKm1\r\n"
      "From: <sip:a@x>;tag=t1\r\nTo: <sip:b@h>\r\nCSeq: 3 INVITE\r\n\r\n"));
  const auto* via_first = lazy.TopVia();
  const auto* from_first = lazy.From();
  ASSERT_NE(via_first, nullptr);
  ASSERT_NE(from_first, nullptr);
  // Memoized: repeated access decodes nothing new, same storage.
  EXPECT_EQ(lazy.TopVia(), via_first);
  EXPECT_EQ(lazy.From(), from_first);
  EXPECT_EQ(via_first->branch, "z9hG4bKm1");

  // Re-indexing resets the memo: the same accessors reflect the new payload.
  ASSERT_TRUE(lazy.Index(
      "BYE sip:b@h SIP/2.0\r\nVia: SIP/2.0/TCP 10.9.9.9;branch=other\r\n"
      "To: <sip:b@h>;tag=late\r\n\r\n"));
  ASSERT_NE(lazy.TopVia(), nullptr);
  EXPECT_EQ(lazy.TopVia()->branch, "other");
  EXPECT_EQ(lazy.From(), nullptr);
  ASSERT_NE(lazy.To(), nullptr);
  EXPECT_EQ(lazy.To()->Tag(), "late");
  EXPECT_EQ(lazy.Cseq(), nullptr);
}

TEST(SipLazyParity, OtherHeaderIdLookupIsExplicitlyAmbiguous) {
  LazyMessage lazy;
  ASSERT_TRUE(
      lazy.Index("INVITE sip:b@h SIP/2.0\r\nX-One: 1\r\nX-Two: 2\r\n\r\n"));
  // kOther covers many names; id-based lookup refuses to guess.
  EXPECT_EQ(lazy.Header(HeaderId::kOther), std::nullopt);
  EXPECT_EQ(lazy.Header("X-One"), "1");
  EXPECT_EQ(lazy.Header("x-two"), "2");
}

// Generated corpus: serialized well-formed messages (and their responses)
// must always be in parity.
class SipLazyGenerated : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SipLazyGenerated, GeneratedMessagesStayInParity) {
  Stream rng(GetParam(), "sip-lazy-parity");
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  const auto token = [&rng](size_t min_len, size_t max_len) {
    std::string out;
    const size_t len = rng.NextInRange(min_len, max_len);
    for (size_t i = 0; i < len; ++i) {
      out += kAlphabet[rng.NextInRange(0, sizeof(kAlphabet) - 2)];
    }
    return out;
  };
  static constexpr Method kMethods[] = {Method::kInvite,   Method::kAck,
                                        Method::kBye,      Method::kCancel,
                                        Method::kRegister, Method::kOptions};
  for (int iteration = 0; iteration < 100; ++iteration) {
    const Method method = kMethods[rng.NextInRange(0, 5)];
    SipUri uri;
    uri.user = token(1, 10);
    uri.host = token(1, 10) + ".example.com";
    if (rng.NextBernoulli(0.4)) {
      uri.port = static_cast<uint16_t>(rng.NextInRange(1, 65535));
    }
    Message msg = Message::MakeRequest(method, uri);
    const int via_count = static_cast<int>(rng.NextInRange(1, 3));
    for (int i = 0; i < via_count; ++i) {
      Via via;
      via.sent_by = net::Endpoint{
          net::IpAddress(
              static_cast<uint32_t>(rng.NextInRange(0x01000000, 0xDFFFFFFF))),
          static_cast<uint16_t>(rng.NextInRange(1024, 65535))};
      via.branch = MakeBranch(rng.Next());
      if (rng.NextBernoulli(0.3)) via.params["received"] = "1.2.3.4";
      msg.PushVia(via);
    }
    NameAddr from;
    from.uri.user = token(1, 8);
    from.uri.host = token(1, 8) + ".net";
    if (rng.NextBernoulli(0.6)) from.display_name = token(1, 8);
    from.SetTag(token(1, 8));
    msg.SetFrom(from);
    NameAddr to;
    to.uri.user = token(1, 8);
    to.uri.host = token(1, 8) + ".org";
    if (rng.NextBernoulli(0.5)) to.SetTag(token(1, 8));
    msg.SetTo(to);
    msg.SetCallId(token(1, 10) + "@" + token(1, 10));
    msg.SetCseq(
        CSeq{static_cast<uint32_t>(rng.NextInRange(1, 1 << 30)), method});
    if (rng.NextBernoulli(0.4)) {
      msg.SetBody(sdp::MakeAudioOffer(
                      net::Endpoint{net::IpAddress(10, 0, 0, 1),
                                    static_cast<uint16_t>(
                                        rng.NextInRange(1024, 65000))})
                      .Serialize(),
                  "application/sdp");
    }
    ExpectParity(msg.Serialize());

    auto response =
        Message::MakeResponse(static_cast<int>(rng.NextInRange(100, 699)));
    response.SetFrom(from);
    response.SetTo(to);
    response.SetCallId(std::string(*msg.CallId()));
    response.SetCseq(*msg.Cseq());
    ExpectParity(response.Serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SipLazyGenerated,
                         ::testing::Values(41, 42, 43, 44));

// Mutation fuzz: random byte damage must keep the two parsers agreeing —
// on rejection and, when both still accept, on every observable.
class SipLazyMutation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SipLazyMutation, MutatedWireStaysInParity) {
  Stream rng(GetParam(), "sip-lazy-mutation");
  const std::string base =
      "INVITE sip:bob@b.example.com SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.1.0.1:5060;branch=z9hG4bKmut\r\n"
      "From: Alice <sip:alice@a.example.com>;tag=t-a\r\n"
      "To: <sip:bob@b.example.com>\r\n"
      "Call-ID: mut-1\r\n"
      "CSeq: 1 INVITE\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "abcd";
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::string wire = base;
    const int mutations = static_cast<int>(rng.NextInRange(1, 6));
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      const size_t pos = rng.NextInRange(0, wire.size() - 1);
      switch (rng.NextInRange(0, 2)) {
        case 0:
          wire[pos] = static_cast<char>(rng.NextInRange(0, 255));
          break;
        case 1:
          wire.erase(pos, 1);
          break;
        default:
          wire.insert(pos, 1, wire[pos]);
          break;
      }
    }
    ExpectParity(wire);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SipLazyMutation,
                         ::testing::Values(51, 52, 53, 54));

}  // namespace
}  // namespace vids::sip
