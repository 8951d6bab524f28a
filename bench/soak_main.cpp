// SOAK: bounded state under sustained traffic (million-call soak/churn).
//
// Drives the load harness (src/load) against the vIDS: benign calls with
// Poisson arrivals and exponential holding times, interleaved attack
// bursts, late retransmissions and a mid-run arrival pause. Samples every
// tracked quantity at fixed simulated-time intervals and screens the
// series for unbounded growth. With --check the process exits nonzero if
// any quantity failed to plateau — the CI gate against IDS-side leaks.
//
// Usage: soak [--calls=N] [--rate=CPS] [--seed=S] [--sample-every=SEC]
//             [--attack-every=N] [--pause=SEC] [--shards=N] [--trace=N]
//             [--tap] [--duration=SEC] [--csv=FILE] [--check]
//             [--pcap=FILE] [--inside=CIDR] [--caller-aors=N]
//             [--spit=N] [--reg-crack=N] [--toll-fraud=N]
//
// --spit/--reg-crack/--toll-fraud=N interleave N behavioral-attack bursts
// (protocol-legal SPIT blasting, distributed registration cracking,
// low-and-slow toll-fraud fan-out — DESIGN.md §16) with the benign
// workload; only the behavior profiles can raise on them. --caller-aors=N
// spreads the benign stream over N caller identities (call-center shape),
// the false-positive-resistance configuration: per-caller rates stay far
// under every behavioral threshold.
//
// --shards=N drives the same workload through the sharded multi-worker
// engine (N worker threads behind SPSC rings) instead of the direct
// single-threaded Vids; the report then also prints wall-clock ingest
// throughput for the scaling table. --trace=N sets the pipeline span
// sampling period for sharded runs (1-in-N packets, 0 = off), so the
// soak's alert totals double as the proof that span sampling never
// changes detection behavior.
//
// --pcap=FILE replaces the generated workload entirely: the capture is
// replayed at recorded timestamps through the selected engine (direct or
// --shards=N) and the run reports decode stats, replay throughput and the
// alert total — real-wire ingress through the same code path as live
// deployment. --inside=CIDR sets the protected-perimeter subnet for
// direction inference (the checked-in corpus uses 10.2.0.0/16).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "capture/pcap.h"
#include "capture/replay.h"
#include "load/soak.h"
#include "obs/metrics.h"
#include "vids/sharded_ids.h"

namespace {

bool ParseFlag(const char* arg, const char* name, long long* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atoll(arg + len + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vids;

  load::SoakConfig config;
  config.total_calls = 500'000;
  bool check = false;
  bool tap = false;
  long long duration_s = 300;
  std::string csv_path;
  std::string pcap_path;
  capture::PcapReadOptions pcap_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    long long value = 0;
    if (std::strncmp(arg, "--pcap=", 7) == 0) {
      pcap_path = arg + 7;
    } else if (std::strncmp(arg, "--inside=", 9) == 0) {
      const auto subnet = net::Subnet::Parse(arg + 9);
      if (!subnet) {
        std::fprintf(stderr, "bad subnet: %s\n", arg + 9);
        return 2;
      }
      pcap_options.inside = *subnet;
    } else if (ParseFlag(arg, "--calls", &value)) {
      config.total_calls = static_cast<uint64_t>(value);
    } else if (ParseFlag(arg, "--rate", &value)) {
      config.calls_per_second = static_cast<double>(value);
    } else if (ParseFlag(arg, "--seed", &value)) {
      config.seed = static_cast<uint64_t>(value);
    } else if (ParseFlag(arg, "--sample-every", &value)) {
      config.sample_every = sim::Duration::Seconds(value);
    } else if (ParseFlag(arg, "--attack-every", &value)) {
      config.attack_every = static_cast<uint64_t>(value);
    } else if (ParseFlag(arg, "--pause", &value)) {
      config.pause = sim::Duration::Seconds(value);
    } else if (ParseFlag(arg, "--shards", &value)) {
      config.shards = static_cast<int>(value);
    } else if (ParseFlag(arg, "--trace", &value)) {
      config.trace_sample_period = static_cast<uint32_t>(value);
    } else if (ParseFlag(arg, "--caller-aors", &value)) {
      config.caller_aors = static_cast<int>(value);
    } else if (ParseFlag(arg, "--spit", &value)) {
      config.spit_bursts = static_cast<int>(value);
    } else if (ParseFlag(arg, "--reg-crack", &value)) {
      config.reg_crack_bursts = static_cast<int>(value);
    } else if (ParseFlag(arg, "--toll-fraud", &value)) {
      config.toll_fraud_bursts = static_cast<int>(value);
    } else if (ParseFlag(arg, "--duration", &value)) {
      duration_s = value;
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      csv_path = arg + 6;
    } else if (std::strcmp(arg, "--check") == 0) {
      check = true;
    } else if (std::strcmp(arg, "--tap") == 0) {
      tap = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }

  if (!pcap_path.empty()) {
    // Real-wire ingress: replay the capture through the selected engine.
    bench::PrintHeader(
        "SOAK --pcap", "capture replay through the engine",
        "a recorded wire capture replays at source timestamps through the "
        "same inspect path as live traffic");
    const auto source = capture::PcapFileSource::Open(pcap_path, pcap_options);
    const int64_t t0 = vids::obs::MonotonicNanos();
    capture::ReplayStats replay;
    size_t alerts = 0;
    if (config.shards > 0) {
      ids::ShardedConfig sharded;
      sharded.shards = config.shards;
      sharded.detection = config.detection;
      sharded.trace_sample_period = config.trace_sample_period;
      ids::ShardedIds engine(sharded);
      replay = capture::RunSource(*source, engine);
      engine.Stop();
      alerts = engine.alerts().size();
    } else {
      sim::Scheduler scheduler;
      ids::Vids vids(scheduler, config.detection);
      replay = capture::RunSource(*source, vids, scheduler);
      alerts = vids.alerts().size();
    }
    const int64_t wall_ns = vids::obs::MonotonicNanos() - t0;
    const auto& stats = source->stats();
    std::printf("pcap: %s\n", pcap_path.c_str());
    std::printf("records=%llu delivered=%llu skipped=%llu\n",
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.delivered),
                static_cast<unsigned long long>(
                    stats.skipped_non_ip + stats.skipped_non_udp +
                    stats.skipped_fragment + stats.skipped_malformed));
    std::printf("replayed %llu packets in %.3fs (%.0f packets/s), "
                "alerts: %zu\n",
                static_cast<unsigned long long>(replay.packets),
                static_cast<double>(wall_ns) / 1e9,
                wall_ns > 0 ? static_cast<double>(replay.packets) * 1e9 /
                                  static_cast<double>(wall_ns)
                            : 0.0,
                alerts);
    if (!source->ok()) {
      std::fprintf(stderr, "capture fault: %s\n", source->error().c_str());
      return 1;
    }
    return 0;
  }

  bench::PrintHeader(
      "SOAK", "bounded state under sustained traffic",
      "state is deleted at final call state and idle state is reclaimed, "
      "so tracked state plateaus instead of growing with uptime");

  load::SoakReport report;
  if (tap) {
    std::printf("tap mode: testbed workload + toolkit attacks, %llds\n",
                duration_s);
    report = load::RunTapSoak(config, sim::Duration::Seconds(duration_s));
  } else {
    if (config.shards > 0) {
      std::printf("sharded mode (%d workers): ", config.shards);
    } else {
      std::printf("direct mode: ");
    }
    std::printf("%llu calls at %.0f/s (attack burst every "
                "%llu calls, %.0fs mid-run pause)\n",
                static_cast<unsigned long long>(config.total_calls),
                config.calls_per_second,
                static_cast<unsigned long long>(config.attack_every),
                config.pause.ToSeconds());
    load::SoakDriver driver(config);
    report = driver.Run();
    if (const char* dump = std::getenv("SOAK_DUMP_ALERTS");
        dump != nullptr && driver.sharded() != nullptr) {
      if (std::FILE* f = std::fopen(dump, "w")) {
        for (const auto& a : driver.sharded()->alerts()) {
          std::fprintf(f, "%s\n", a.ToString().c_str());
        }
        std::fclose(f);
      }
    }
  }

  bench::PrintRule();
  std::fputs(report.Summary().c_str(), stdout);
  bench::PrintRule();
  std::printf("calls started: %llu, packets inspected: %llu, alerts: %llu\n",
              static_cast<unsigned long long>(report.calls_started),
              static_cast<unsigned long long>(report.packets_inspected),
              static_cast<unsigned long long>(report.alerts_total));
  if (report.wall_ns > 0) {
    std::printf("wall time: %.2fs, ingest throughput: %.0f packets/s\n",
                static_cast<double>(report.wall_ns) / 1e9,
                report.packets_per_second);
  }
  std::printf("verdict: %s\n",
              report.bounded ? "BOUNDED (all quantities plateaued)"
                             : "UNBOUNDED GROWTH DETECTED");

  if (!csv_path.empty()) {
    if (std::FILE* f = std::fopen(csv_path.c_str(), "w")) {
      std::fputs(report.Csv().c_str(), f);
      std::fclose(f);
      std::printf("samples written to %s\n", csv_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 2;
    }
  }

  return (check && !report.bounded) ? 1 : 0;
}
