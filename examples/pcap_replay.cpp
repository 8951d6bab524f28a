// pcap_replay: feed a capture file through the vIDS, offline.
//
// The operator-facing half of the capture front end (DESIGN.md §14): reads
// a classic pcap savefile (either byte order, µs or ns resolution,
// Ethernet/VLAN or raw-IPv4 frames, UDP only), replays it at recorded
// timestamps into the engine — single-threaded Vids by default, the
// sharded multi-worker engine with --shards=N — and prints decode stats
// plus the alert list. CI replays the checked-in corpus at --shards=1 and
// --shards=4 and asserts identical alert counts.
//
// Usage: pcap_replay --pcap=FILE [--shards=N] [--inside=CIDR] [--quiet]
//
//   --inside=CIDR  packets whose source lies in CIDR are treated as coming
//                  from inside the protected perimeter (default: all
//                  traffic is outside). The checked-in corpus uses
//                  10.2.0.0/16.
//
// Exit status: 0 on success, 1 on a capture fault (bad magic, record past
// EOF) or an unreadable file, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "capture/pcap.h"
#include "capture/replay.h"
#include "sim/scheduler.h"
#include "vids/ids.h"
#include "vids/sharded_ids.h"

int main(int argc, char** argv) {
  using namespace vids;

  std::string pcap_path;
  int shards = 0;
  bool quiet = false;
  capture::PcapReadOptions read_options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--pcap=", 7) == 0) {
      pcap_path = arg + 7;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--inside=", 9) == 0) {
      const auto subnet = net::Subnet::Parse(arg + 9);
      if (!subnet) {
        std::fprintf(stderr, "pcap_replay: bad subnet '%s'\n", arg + 9);
        return 2;
      }
      read_options.inside = *subnet;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: pcap_replay --pcap=FILE [--shards=N] "
                   "[--inside=CIDR] [--quiet]\n");
      return 2;
    }
  }
  if (pcap_path.empty()) {
    std::fprintf(stderr, "pcap_replay: --pcap=FILE is required\n");
    return 2;
  }

  const auto source = capture::PcapFileSource::Open(pcap_path, read_options);
  capture::ReplayStats replay;
  std::map<std::string, int> by_classification;
  size_t alert_count = 0;

  if (shards > 0) {
    ids::ShardedConfig config;
    config.shards = shards;
    ids::ShardedIds engine(config);
    replay = capture::RunSource(*source, engine);
    engine.Stop();
    alert_count = engine.alerts().size();
    for (const auto& alert : engine.alerts()) {
      ++by_classification[alert.classification];
    }
  } else {
    sim::Scheduler scheduler;
    ids::Vids vids(scheduler, ids::DetectionConfig{}, ids::CostModel{});
    replay = capture::RunSource(*source, vids, scheduler);
    alert_count = vids.alerts().size();
    for (const auto& alert : vids.alerts()) {
      ++by_classification[alert.classification];
    }
  }

  const auto& stats = source->stats();
  std::printf("pcap: %s (%s-endian, %s resolution, linktype %u)\n",
              pcap_path.c_str(), source->swapped() ? "big" : "little",
              source->nanosecond() ? "ns" : "us", source->linktype());
  std::printf(
      "records=%llu delivered=%llu skipped: non_ip=%llu non_udp=%llu "
      "fragment=%llu malformed=%llu\n",
      static_cast<unsigned long long>(stats.records),
      static_cast<unsigned long long>(stats.delivered),
      static_cast<unsigned long long>(stats.skipped_non_ip),
      static_cast<unsigned long long>(stats.skipped_non_udp),
      static_cast<unsigned long long>(stats.skipped_fragment),
      static_cast<unsigned long long>(stats.skipped_malformed));
  std::printf("replayed %llu packets in %llu batches, stream end %.6fs, "
              "shards=%d\n",
              static_cast<unsigned long long>(replay.packets),
              static_cast<unsigned long long>(replay.batches),
              replay.end.ToSeconds(), shards);
  std::printf("alerts: %zu\n", alert_count);
  if (!quiet) {
    for (const auto& [classification, count] : by_classification) {
      std::printf("  %-40s %d\n", classification.c_str(), count);
    }
  }
  if (!source->ok()) {
    std::fprintf(stderr, "capture fault: %s\n", source->error().c_str());
    return 1;
  }
  return 0;
}
