#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "capture/corpus.h"
#include "capture/pcap.h"
#include "sdp/sdp.h"
#include "sip/lazy_message.h"

namespace vids::sdp {
namespace {

constexpr const char* kTypical =
    "v=0\r\n"
    "o=alice 2890844526 2890844527 IN IP4 10.1.0.10\r\n"
    "s=call\r\n"
    "c=IN IP4 10.1.0.10\r\n"
    "t=0 0\r\n"
    "m=audio 20000 RTP/AVP 18 0\r\n"
    "a=rtpmap:18 G729/8000\r\n"
    "a=rtpmap:0 PCMU/8000\r\n"
    "a=sendrecv\r\n";

TEST(Sdp, ParsesTypicalOffer) {
  const auto sd = SessionDescription::Parse(kTypical);
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->origin_username, "alice");
  EXPECT_EQ(sd->session_id, 2890844526u);
  EXPECT_EQ(sd->session_version, 2890844527u);
  ASSERT_TRUE(sd->connection.has_value());
  EXPECT_EQ(sd->connection->ToString(), "10.1.0.10");
  ASSERT_EQ(sd->media.size(), 1u);
  const auto& m = sd->media[0];
  EXPECT_EQ(m.media, "audio");
  EXPECT_EQ(m.port, 20000);
  EXPECT_EQ(m.transport, "RTP/AVP");
  EXPECT_EQ(m.payload_types, (std::vector<int>{18, 0}));
  EXPECT_EQ(m.rtpmap.at(18), "G729/8000");
  ASSERT_EQ(m.attributes.size(), 1u);
  EXPECT_EQ(m.attributes[0], "sendrecv");
}

TEST(Sdp, AudioEndpointAndCodec) {
  const auto sd = SessionDescription::Parse(kTypical);
  ASSERT_TRUE(sd.has_value());
  const auto ep = sd->AudioEndpoint();
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->ToString(), "10.1.0.10:20000");
  EXPECT_EQ(sd->AudioCodec(), "G729");
}

TEST(Sdp, MediaLevelConnectionOverridesSession) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\n"
      "o=- 1 1 IN IP4 10.0.0.1\r\n"
      "s=-\r\n"
      "c=IN IP4 10.0.0.1\r\n"
      "m=audio 4000 RTP/AVP 0\r\n"
      "c=IN IP4 10.0.0.99\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->AudioEndpoint()->ip.ToString(), "10.0.0.99");
}

TEST(Sdp, CodecFallsBackToStaticPayloadTable) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\n"
      "m=audio 4000 RTP/AVP 0\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->AudioCodec(), "PCMU");
}

TEST(Sdp, SerializeParseRoundTrip) {
  const auto offer =
      MakeAudioOffer(net::Endpoint{net::IpAddress(10, 2, 0, 11), 22334});
  const auto parsed = SessionDescription::Parse(offer.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AudioEndpoint()->ToString(), "10.2.0.11:22334");
  EXPECT_EQ(parsed->AudioCodec(), "G729");
  ASSERT_EQ(parsed->media.size(), 1u);
  EXPECT_EQ(parsed->media[0].payload_types, (std::vector<int>{18}));
}

TEST(Sdp, RejectsMissingVersion) {
  EXPECT_FALSE(SessionDescription::Parse(
                   "o=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\n")
                   .has_value());
  EXPECT_FALSE(SessionDescription::Parse("").has_value());
  EXPECT_FALSE(SessionDescription::Parse("v=1\r\n").has_value());
}

TEST(Sdp, RejectsMalformedMediaLine) {
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nm=audio RTP/AVP 0\r\n").has_value());
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nm=audio 4000 RTP/AVP x\r\n")
          .has_value());
}

TEST(Sdp, RejectsMalformedConnection) {
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nc=IN IP6 ::1\r\n").has_value());
  EXPECT_FALSE(
      SessionDescription::Parse("v=0\r\nc=IN IP4 999.0.0.1\r\n").has_value());
}

TEST(Sdp, IgnoresUnknownLinesAndBareNewlines) {
  const auto sd = SessionDescription::Parse(
      "v=0\n"
      "o=- 1 1 IN IP4 10.0.0.1\n"
      "s=-\n"
      "b=AS:64\n"
      "z=something\n"
      "c=IN IP4 10.0.0.1\n"
      "m=audio 4000 RTP/AVP 18\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_TRUE(sd->AudioEndpoint().has_value());
}

TEST(Sdp, LinesWithoutEqualsAreRejected) {
  EXPECT_FALSE(SessionDescription::Parse("v=0\r\ngarbage\r\n").has_value());
}

TEST(Sdp, NoAudioSectionMeansNoEndpoint) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=video 5000 RTP/AVP 31\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_FALSE(sd->AudioEndpoint().has_value());
  EXPECT_EQ(sd->AudioCodec(), "");
}

TEST(Sdp, ZeroPortMeansNoEndpoint) {
  const auto sd = SessionDescription::Parse(
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=audio 0 RTP/AVP 18\r\n");
  ASSERT_TRUE(sd.has_value());
  EXPECT_FALSE(sd->AudioEndpoint().has_value());
}

// ------------------------------------------- ProbeAudio ≡ Parse property
// sdp.h documents ProbeAudio as Parse + AudioEndpoint + AudioCodec + the
// first section's first payload type, nullopt exactly when Parse rejects.
// The classifier exports ProbeAudio's endpoint and the shard router claims
// it, so a body on which the two disagree could send media to a shard that
// does not own the call.

void ExpectProbeMatchesParse(const std::string& body) {
  const auto probe = ProbeAudio(body);
  const auto sd = SessionDescription::Parse(body);
  ASSERT_EQ(probe.has_value(), sd.has_value())
      << ::testing::PrintToString(body);
  if (!sd) return;
  const auto endpoint = sd->AudioEndpoint();
  EXPECT_EQ(probe->has_endpoint, endpoint.has_value())
      << ::testing::PrintToString(body);
  if (probe->has_endpoint && endpoint) {
    EXPECT_EQ(probe->endpoint, *endpoint) << ::testing::PrintToString(body);
  }
  EXPECT_EQ(probe->codec, sd->AudioCodec()) << ::testing::PrintToString(body);
  const bool has_pt = !sd->media.empty();
  EXPECT_EQ(probe->has_first_pt, has_pt) << ::testing::PrintToString(body);
  if (probe->has_first_pt && has_pt) {
    EXPECT_EQ(probe->first_pt, sd->media.front().payload_types.front())
        << ::testing::PrintToString(body);
  }
}

// The SDP bodies the corpus captures carry (session-level and media-level
// c=, with and without a decoy), plus hand-written multi-section ones.
std::vector<std::string> SeedBodies() {
  std::set<std::string> bodies = {
      kTypical,
      "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\n"
      "m=video 5000 RTP/AVP 31\r\nc=IN IP4 10.0.0.7\r\n"
      "m=audio 4000 RTP/AVP 0 8\r\nc=IN IP4 10.0.0.99\r\n"
      "a=rtpmap:0 PCMU/8000\r\nm=audio 4002 RTP/AVP 18\r\n",
      "v=0\nc=IN IP4 10.0.0.1\nm=audio 4000 RTP/AVP 96\n"
      "a=rtpmap:96 opus/48000/2\na=rtpmap:96 AMR\n",
  };
  for (const auto& file : capture::corpus::BuildAll()) {
    capture::PcapFileSource source(file.bytes);
    std::vector<capture::TimedPacket> batch;
    sip::LazyMessage message;
    while (source.PullBatch(batch, 64) > 0) {
      for (const auto& packet : batch) {
        if (message.Index(packet.dgram.payload) &&
            message.body().starts_with("v=")) {
          bodies.emplace(message.body());
        }
      }
    }
  }
  return {bodies.begin(), bodies.end()};
}

// SDP_PROBE_CASES when set (the nightly lane runs 100x), else 20,000.
int SdpProbeCases() {
  const char* env = std::getenv("SDP_PROBE_CASES");
  return env != nullptr ? std::atoi(env) : 20'000;
}

// Rewrites a body line by line: lines are kept without their ends, and
// each remembers whether it ended in CRLF.
struct Lines {
  std::vector<std::string> text;
  std::vector<bool> crlf;

  explicit Lines(std::string_view body) {
    size_t pos = 0;
    while (pos < body.size()) {
      const size_t eol = body.find('\n', pos);
      std::string line(body.substr(
          pos, eol == std::string_view::npos ? body.size() - pos : eol - pos));
      pos = eol == std::string_view::npos ? body.size() : eol + 1;
      const bool cr = !line.empty() && line.back() == '\r';
      if (cr) line.pop_back();
      text.push_back(std::move(line));
      crlf.push_back(cr);
    }
  }
  std::string Join() const {
    std::string out;
    for (size_t i = 0; i < text.size(); ++i) {
      out += text[i];
      out += crlf[i] ? "\r\n" : "\n";
    }
    return out;
  }
  void Insert(size_t at, std::string line, bool cr) {
    text.insert(text.begin() + static_cast<ptrdiff_t>(at), std::move(line));
    crlf.insert(crlf.begin() + static_cast<ptrdiff_t>(at), cr);
  }
  void Erase(size_t at) {
    text.erase(text.begin() + static_cast<ptrdiff_t>(at));
    crlf.erase(crlf.begin() + static_cast<ptrdiff_t>(at));
  }
};

std::vector<std::string> Fields(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t space = value.find(' ', start);
    out.push_back(value.substr(start, space - start));
    if (space == std::string::npos) return out;
    start = space + 1;
  }
}

std::string Unfields(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ' ';
    out += fields[i];
  }
  return out;
}

void Mutate(Lines& lines, std::mt19937_64& rng) {
  const auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const auto of_type = [&](std::string_view types) {
    std::vector<size_t> at;
    for (size_t i = 0; i < lines.text.size(); ++i) {
      const std::string& line = lines.text[i];
      if (line.size() >= 2 && line[1] == '=' &&
          types.find(line[0]) != std::string_view::npos) {
        at.push_back(i);
      }
    }
    return at;
  };
  static const char* const kJunk[] = {"x", "", "-1", "70000", "18a", "+5",
                                      " 7", "0"};
  const size_t n = lines.text.size();
  switch (pick(10)) {
    case 0:  // drop a line
      if (n != 0) lines.Erase(pick(n));
      break;
    case 1:  // duplicate a line somewhere
      if (n != 0) {
        const size_t from = pick(n);
        lines.Insert(pick(n + 1), lines.text[from], lines.crlf[from]);
      }
      break;
    case 2: {  // one field more or fewer on an o=, c= or m= line
      const auto at = of_type("ocm");
      if (at.empty()) break;
      std::string& line = lines.text[at[pick(at.size())]];
      auto fields = Fields(line.substr(2));
      if (pick(2) == 0 && fields.size() > 1) {
        fields.erase(fields.begin() + static_cast<ptrdiff_t>(
                                          pick(fields.size())));
      } else {
        fields.insert(
            fields.begin() + static_cast<ptrdiff_t>(pick(fields.size() + 1)),
            pick(2) == 0 ? "0" : "IN");
      }
      line = line.substr(0, 2) + Unfields(fields);
      break;
    }
    case 3: {  // a non-numeric or out-of-range port or payload type
      const auto at = of_type("m");
      if (at.empty()) break;
      std::string& line = lines.text[at[pick(at.size())]];
      auto fields = Fields(line.substr(2));
      if (fields.size() < 2) break;
      const size_t field = pick(2) == 0 ? 1 : 1 + pick(fields.size() - 1);
      fields[field] = kJunk[pick(std::size(kJunk))];
      line = line.substr(0, 2) + Unfields(fields);
      break;
    }
    case 4: {  // a c= line moved anywhere: before or after any m=
      const auto at = of_type("c");
      if (at.empty()) break;
      const size_t from = at[pick(at.size())];
      std::string line = lines.text[from];
      const bool cr = lines.crlf[from];
      lines.Erase(from);
      lines.Insert(pick(lines.text.size() + 1), std::move(line), cr);
      break;
    }
    case 5: {  // an rtpmap for a section's payload type, with or without '/'
      const auto at = of_type("m");
      if (at.empty()) break;
      const size_t m = at[pick(at.size())];
      const auto fields = Fields(lines.text[m].substr(2));
      const std::string pt = fields.size() > 3 && pick(3) != 0
                                 ? fields[3 + pick(fields.size() - 3)]
                                 : std::to_string(pick(128));
      static const char* const kMaps[] = {"G729/8000", "PCMU", "AMR/8000/1",
                                          "/8000", "", " speex/16000"};
      lines.Insert(m + 1 + pick(lines.text.size() - m),
                   "a=rtpmap:" + pt + ' ' + kMaps[pick(std::size(kMaps))],
                   pick(2) == 0);
      break;
    }
    case 6:  // LF against CRLF line ends, all of them or one
      if (pick(2) == 0) {
        const bool cr = pick(2) == 0;
        for (size_t i = 0; i < lines.crlf.size(); ++i) lines.crlf[i] = cr;
      } else if (n != 0) {
        const size_t i = pick(n);
        lines.crlf[i] = !lines.crlf[i];
      }
      break;
    case 7: {  // the media type of an m= section
      const auto at = of_type("m");
      if (at.empty()) break;
      std::string& line = lines.text[at[pick(at.size())]];
      auto fields = Fields(line.substr(2));
      static const char* const kMedia[] = {"audio", "video", "AUDIO", ""};
      fields[0] = kMedia[pick(std::size(kMedia))];
      line = line.substr(0, 2) + Unfields(fields);
      break;
    }
    case 8: {  // whitespace: a doubled space, or a tab at either end
      if (n == 0) break;
      std::string& line = lines.text[pick(n)];
      const size_t at = pick(line.size() + 1);
      static const char* const kSpace[] = {" ", "\t", "  "};
      line.insert(at, kSpace[pick(std::size(kSpace))]);
      break;
    }
    case 9: {  // a connection address that does or does not parse
      const auto at = of_type("c");
      if (at.empty()) break;
      static const char* const kAddresses[] = {
          "IN IP4 10.9.9.9", "IN IP4 999.1.1.1", "IN IP6 ::1",
          "IN IP4 10.1.2", "in ip4 10.0.0.1"};
      lines.text[at[pick(at.size())]] =
          std::string("c=") + kAddresses[pick(std::size(kAddresses))];
      break;
    }
  }
}

TEST(SdpProbe, MatchesParseOnMutatedCorpusBodies) {
  const auto seeds = SeedBodies();
  ASSERT_GE(seeds.size(), 5u);
  for (const auto& body : seeds) ExpectProbeMatchesParse(body);
  std::mt19937_64 rng(41);
  const int cases = SdpProbeCases();
  size_t accepted = 0;
  for (int i = 0; i < cases; ++i) {
    Lines lines(seeds[rng() % seeds.size()]);
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations; ++k) Mutate(lines, rng);
    const std::string body = lines.Join();
    ExpectProbeMatchesParse(body);
    if (::testing::Test::HasFailure()) return;
    accepted += SessionDescription::Parse(body).has_value() ? 1 : 0;
  }
  // Both outcomes must be well represented, or the property says little.
  EXPECT_GT(accepted, static_cast<size_t>(cases) / 5);
  EXPECT_LT(accepted, static_cast<size_t>(cases) * 4 / 5);
}

}  // namespace
}  // namespace vids::sdp
