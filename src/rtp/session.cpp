#include "rtp/session.h"

#include <cmath>

#include "common/log.h"

namespace vids::rtp {

MediaSession::MediaSession(sim::Scheduler& scheduler, net::Host& host,
                           Config config, common::Stream& rng)
    : scheduler_(scheduler),
      host_(host),
      config_(std::move(config)),
      rng_(rng.Fork(std::string(host.name()) + ":rtp:" +
                    std::to_string(config_.local_port))),
      ssrc_(config_.ssrc != 0
                ? config_.ssrc
                : static_cast<uint32_t>(rng_.NextInRange(1, 0xFFFFFFFF))),
      next_seq_(static_cast<uint16_t>(rng_.NextInRange(0, 0xFFFF))),
      next_timestamp_(static_cast<uint32_t>(rng_.NextInRange(0, 0xFFFFFFFF))),
      frame_timer_(scheduler),
      spurt_timer_(scheduler),
      rtcp_timer_(scheduler) {
  host_.BindUdp(config_.local_port,
                [this](const net::Datagram& dgram) { OnDatagram(dgram); });
  if (config_.rtcp_enabled) {
    host_.BindUdp(static_cast<uint16_t>(config_.local_port + 1),
                  [this](const net::Datagram& dgram) { OnRtcpDatagram(dgram); });
  }
}

MediaSession::~MediaSession() {
  Stop();
  host_.UnbindUdp(config_.local_port);
  if (config_.rtcp_enabled) {
    host_.UnbindUdp(static_cast<uint16_t>(config_.local_port + 1));
  }
}

void MediaSession::Start() {
  if (sending_) return;
  sending_ = true;
  if (config_.rtcp_enabled) {
    rtcp_timer_.Start(config_.rtcp_interval, [this] { SendSenderReport(); });
  }
  if (config_.talkspurt.enabled) {
    EnterTalkspurt();
  } else {
    in_talkspurt_ = true;
    first_frame_of_spurt_ = true;
    SendFrame();
  }
}

void MediaSession::Stop() {
  const bool was_sending = sending_;
  sending_ = false;
  in_talkspurt_ = false;
  frame_timer_.Cancel();
  spurt_timer_.Cancel();
  rtcp_timer_.Cancel();
  if (was_sending && config_.rtcp_enabled && !rtcp_bye_sent_) {
    rtcp_bye_sent_ = true;
    SendRtcpBye();
  }
}

void MediaSession::EnterTalkspurt() {
  if (!sending_) return;
  in_talkspurt_ = true;
  first_frame_of_spurt_ = true;
  const double talk_s =
      rng_.NextExponential(config_.talkspurt.mean_talk.ToSeconds());
  spurt_timer_.Start(sim::Duration::FromSeconds(talk_s),
                     [this] { EnterSilence(); });
  SendFrame();
}

void MediaSession::EnterSilence() {
  in_talkspurt_ = false;
  frame_timer_.Cancel();
  if (!sending_) return;
  const double silence_s =
      rng_.NextExponential(config_.talkspurt.mean_silence.ToSeconds());
  // The RTP timestamp keeps advancing through silence (RFC 3550 §5.1): the
  // next talkspurt starts with a timestamp jump and the marker bit set.
  const auto frames_skipped = static_cast<uint32_t>(
      silence_s / config_.codec.frame_interval.ToSeconds());
  next_timestamp_ += frames_skipped * config_.codec.TimestampStep();
  spurt_timer_.Start(sim::Duration::FromSeconds(silence_s),
                     [this] { EnterTalkspurt(); });
}

void MediaSession::SendFrame() {
  if (!sending_ || !in_talkspurt_) return;
  RtpHeader header;
  header.marker = first_frame_of_spurt_;
  first_frame_of_spurt_ = false;
  header.payload_type = config_.codec.payload_type;
  header.sequence_number = next_seq_++;
  header.timestamp = next_timestamp_;
  next_timestamp_ += config_.codec.TimestampStep();
  header.ssrc = ssrc_;
  ++packets_sent_;
  m_packets_sent_->Inc();
  octets_sent_ += config_.codec.bytes_per_frame;
  host_.SendUdp(config_.local_port, config_.remote, header.Serialize(),
                config_.codec.bytes_per_frame);
  ScheduleNextFrame();
}

void MediaSession::SendSenderReport() {
  if (!sending_) return;
  SenderReport report;
  report.sender_ssrc = ssrc_;
  report.ntp_timestamp = static_cast<uint64_t>(scheduler_.Now().nanos());
  report.rtp_timestamp = next_timestamp_;
  report.packet_count = static_cast<uint32_t>(packets_sent_);
  report.octet_count = static_cast<uint32_t>(octets_sent_);
  // Piggyback a reception report on the incoming stream, if any.
  if (locked_ssrc_ && last_seq_) {
    ReportBlock block;
    block.ssrc = *locked_ssrc_;
    block.cumulative_lost = static_cast<uint32_t>(stats_.packets_lost);
    block.highest_seq = *last_seq_;
    block.jitter = static_cast<uint32_t>(stats_.jitter_seconds *
                                         config_.codec.clock_rate);
    report.reports.push_back(block);
  }
  ++rtcp_sent_;
  m_rtcp_sent_->Inc();
  host_.SendUdp(static_cast<uint16_t>(config_.local_port + 1), RemoteRtcp(),
                report.Serialize());
  rtcp_timer_.Start(config_.rtcp_interval, [this] { SendSenderReport(); });
}

void MediaSession::SendRtcpBye() {
  RtcpBye bye;
  bye.ssrcs.push_back(ssrc_);
  bye.reason = "session ended";
  ++rtcp_sent_;
  m_rtcp_sent_->Inc();
  host_.SendUdp(static_cast<uint16_t>(config_.local_port + 1), RemoteRtcp(),
                bye.Serialize());
}

void MediaSession::OnRtcpDatagram(const net::Datagram& dgram) {
  const auto packet = ParseRtcp(dgram.payload);
  if (!packet) return;
  ++rtcp_received_;
  m_rtcp_received_->Inc();
  if (packet->sr) remote_claimed_packets_ = packet->sr->packet_count;
  if (packet->bye) remote_bye_received_ = true;
}

void MediaSession::ScheduleNextFrame() {
  frame_timer_.Start(config_.codec.frame_interval, [this] { SendFrame(); });
}

void MediaSession::OnDatagram(const net::Datagram& dgram) {
  const auto header = RtpHeader::Parse(dgram.payload);
  if (!header) return;

  if (!locked_ssrc_) {
    locked_ssrc_ = header->ssrc;
  } else if (*locked_ssrc_ != header->ssrc) {
    ++stats_.ssrc_mismatches;
    m_ssrc_mismatches_->Inc();
    // Still measured: a spoofed-SSRC stream is the media-spam attack and we
    // want the victim's QoS numbers to show its effect.
  }

  ++stats_.packets_received;
  m_packets_received_->Inc();
  if (last_seq_) {
    const int gap = SeqDistance(*last_seq_, header->sequence_number);
    if (gap > 1) {
      stats_.packets_lost += static_cast<uint64_t>(gap - 1);
      m_packets_lost_->Inc(static_cast<uint64_t>(gap - 1));
    } else if (gap < 0) {
      ++stats_.packets_misordered;
      m_packets_misordered_->Inc();
    }
  }
  last_seq_ = header->sequence_number;

  const double transit =
      (scheduler_.Now() - dgram.sent_time).ToSeconds();
  stats_.total_delay_seconds += transit;
  stats_.max_delay_seconds = std::max(stats_.max_delay_seconds, transit);
  if (last_transit_) {
    // RFC 3550 §6.4.1: J += (|D| - J) / 16.
    const double d = std::abs(transit - *last_transit_);
    stats_.jitter_seconds += (d - stats_.jitter_seconds) / 16.0;
  }
  last_transit_ = transit;

  if (config_.sample_every != 0 &&
      stats_.packets_received % config_.sample_every == 0) {
    samples_.push_back(QosSample{scheduler_.Now(), transit,
                                 stats_.jitter_seconds});
  }
}

void MediaSession::AttachMetrics(obs::MetricsRegistry& registry) {
  m_packets_sent_ = &registry.GetCounter("rtp.packets_sent");
  m_packets_received_ = &registry.GetCounter("rtp.packets_received");
  m_packets_lost_ = &registry.GetCounter("rtp.packets_lost");
  m_packets_misordered_ = &registry.GetCounter("rtp.packets_misordered");
  m_ssrc_mismatches_ = &registry.GetCounter("rtp.ssrc_mismatches");
  m_rtcp_sent_ = &registry.GetCounter("rtp.rtcp_sent");
  m_rtcp_received_ = &registry.GetCounter("rtp.rtcp_received");
}

}  // namespace vids::rtp
