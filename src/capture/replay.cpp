#include "capture/replay.h"

#include <vector>

namespace vids::capture {

ReplayStats RunSource(PcapFileSource& source, ids::Vids& vids,
                      sim::Scheduler& scheduler, size_t batch_size) {
  ReplayStats stats;
  std::vector<TimedPacket> batch;
  batch.reserve(batch_size);
  while (source.PullBatch(batch, batch_size) > 0) {
    ++stats.batches;
    for (TimedPacket& packet : batch) {
      if (packet.when > scheduler.Now()) scheduler.RunUntil(packet.when);
      vids.Inspect(packet.dgram, packet.from_outside);
      ++stats.packets;
    }
  }
  if (source.clock() > scheduler.Now()) scheduler.RunUntil(source.clock());
  stats.end = source.clock();
  stats.ok = source.ok();
  return stats;
}

ReplayStats RunSource(PcapFileSource& source, ids::ShardedIds& engine,
                      size_t batch_size) {
  ReplayStats stats;
  std::vector<TimedPacket> batch;
  batch.reserve(batch_size);
  while (source.PullBatch(batch, batch_size) > 0) {
    ++stats.batches;
    for (TimedPacket& packet : batch) {
      engine.Ingest(packet.dgram, packet.from_outside, packet.when);
      ++stats.packets;
    }
  }
  engine.Flush(source.clock());
  stats.end = source.clock();
  stats.ok = source.ok();
  return stats;
}

}  // namespace vids::capture
