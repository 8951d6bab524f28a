// Forensics workflow: record the wire, re-analyze offline.
//
//   $ ./build/examples/record_and_replay [capture.pcap]
//
// Captures a BYE DoS attack at the monitoring point, saves it as a
// classic pcap file (any capture tool can open it), then replays the file
// into a *fresh* offline vIDS twice — once with the default thresholds
// (reproducing the online alerts) and once with a paranoid configuration —
// showing how a recorded incident can be re-examined after the fact.
//
// Exits 0 only if the default-threshold replay raises BYE DoS.
#include <cstdio>
#include <string>

#include "capture/pcap.h"
#include "capture/replay.h"
#include "testbed/testbed.h"
#include "vids/trace.h"

using namespace vids;

namespace {

/// Replays the saved capture into `vids`, then runs its scheduler until
/// every IDS-internal timer has fired. Returns false on a capture fault.
bool Replay(const std::string& path, ids::Vids& vids,
            sim::Scheduler& scheduler) {
  capture::PcapReadOptions read;
  // The testbed's network B sits inside the tap.
  read.inside = net::Subnet(net::IpAddress(10, 2, 0, 0), 16);
  // Keep the recorded sim-clock instants (written with epoch 0).
  read.rebase_to_first = false;
  const auto source = capture::PcapFileSource::Open(path, read);
  capture::RunSource(*source, vids, scheduler);
  scheduler.Run();
  if (!source->ok()) {
    std::printf("capture fault: %s\n", source->error().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/vids_incident.pcap";

  // --- Online: the incident happens; the tap records. ---
  testbed::TestbedConfig config;
  config.seed = 2026;
  config.uas_per_network = 3;
  testbed::Testbed bed(config);
  ids::TraceLog capture;
  bed.AddMonitor(capture.MakeRecorder(bed.scheduler()));
  bed.RunFor(sim::Duration::Seconds(2));
  auto& caller = *bed.uas_a()[0];
  const auto call_id = caller.ua().PlaceCall(
      bed.uas_b()[0]->ua().address_of_record(), sim::Duration::Seconds(120));
  bed.RunFor(sim::Duration::Seconds(3));
  if (const auto snap = bed.eavesdropper().Get(call_id)) {
    bed.attacker().SendSpoofedBye(*snap);
  }
  // Keep recording long enough for the duped caller's next talkspurt —
  // VAD silences can stretch for many seconds.
  bed.RunFor(sim::Duration::Seconds(20));
  std::printf("online: %zu packets captured, %zu alert(s)\n", capture.size(),
              bed.vids()->alerts().size());

  capture::PcapWriteOptions write;
  write.epoch_base_s = 0;  // pcap timestamps = sim-clock instants
  capture::PcapWriter writer(write);
  for (const ids::TraceRecord& record : capture.records()) {
    writer.Add(record.when, record.dgram);
  }
  if (!writer.WriteFile(path)) {
    std::printf("cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("capture written to %s\n\n", path.c_str());

  // --- Offline: reload and re-analyze. ---
  std::printf("replay with default thresholds:\n");
  sim::Scheduler scheduler_a;
  ids::Vids default_vids(scheduler_a);
  if (!Replay(path, default_vids, scheduler_a)) return 1;
  for (const auto& alert : default_vids.alerts()) {
    std::printf("  %s\n", alert.ToString().c_str());
  }

  std::printf("\nreplay with a paranoid configuration (T = 10 ms):\n");
  ids::DetectionConfig paranoid;
  paranoid.bye_inflight_grace = sim::Duration::Millis(10);
  sim::Scheduler scheduler_b;
  ids::Vids paranoid_vids(scheduler_b, paranoid);
  if (!Replay(path, paranoid_vids, scheduler_b)) return 1;
  std::printf("  %zu alert(s) — smaller T flags the attack sooner (and, on "
              "clean traffic,\n  would false-alarm; see "
              "bench/detection_sensitivity)\n",
              paranoid_vids.alerts().size());

  return default_vids.CountAlerts(ids::kAttackByeDos) >= 1 ? 0 : 1;
}
