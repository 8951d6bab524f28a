// Coordinator-private media-endpoint → owning-shard map.
//
// The sharded engine routes RTP/RTCP by the media endpoint's owner: the
// shard of the call whose SDP negotiated it (DESIGN.md §11). Only the
// coordinator thread routes, and it sees every claim in stream order, so
// the map is single-writer: a FlatTable of (endpoint, owner, last seen)
// whose entries expire through a ReclaimWheel, like every other table with
// a time-to-live (DESIGN.md §9). An entry idle longer than the horizon is
// absent to Lookup and Claim, so draining the wheel, at any instant, only
// frees memory. Each entry has one record, and dies only when it comes due.
//
// A claim reports at most one ownership edge: the shard that must drop its
// state for the endpoint so exactly one shard counts the stream from the
// claim onward.
//  - First claim: media that arrived before the negotiation hash-routed,
//    so the hash shard is retracted (an "early" edge) if it differs.
//  - Renegotiation: the previous owner is retracted if it differs.
//  - A re-claim by the current owner changes nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"
#include "vids/flat_index.h"
#include "vids/reclaim_wheel.h"

namespace vids::ids {

class MediaOwnerMap {
 public:
  /// The shard that must drop its state for the endpoint (-1: none);
  /// `early` marks a first claim over pre-negotiation (hash-routed) media.
  struct Retract {
    int shard = -1;
    bool early = false;
  };

  /// Entries idle longer than `horizon` are absent; the wheel's slots are
  /// `slot_width` wide.
  MediaOwnerMap(sim::Duration horizon, sim::Duration slot_width)
      : horizon_ns_(horizon.nanos()), wheel_(slot_width) {}

  /// The shard owning `key`, or -1. A hit refreshes the idle stamp.
  int Lookup(uint64_t key, int64_t when_ns) {
    const uint32_t index = Find(key);
    if (index == kNoEntry || Idle(entries_[index], when_ns)) return -1;
    entries_[index].last_seen_ns = when_ns;
    return entries_[index].shard;
  }

  /// `shard` claims `key` at `when_ns`; `hash_shard` is where the endpoint's
  /// media routed while unclaimed.
  Retract Claim(uint64_t key, int shard, int64_t when_ns, int hash_shard) {
    uint32_t index = Find(key);
    // An idle entry not yet drained keeps its record: the drain files it
    // again under the new stamp.
    const bool first = index == kNoEntry || Idle(entries_[index], when_ns);
    if (index == kNoEntry) {
      index = entries_.Insert(std::hash<uint64_t>{}(key));
      entries_[index].key = key;
      wheel_.File(Due(when_ns), index, 0);
    }
    Entry& e = entries_[index];
    const int previous = first ? hash_shard : e.shard;
    e.shard = shard;
    e.last_seen_ns = when_ns;
    return previous != shard ? Retract{previous, first} : Retract{};
  }

  /// Erases the entries whose records are due at `now` if they are still
  /// idle, and files the touched ones again. A map that drains to empty
  /// frees its table and its wheel.
  void Drain(sim::Time now) {
    due_.clear();
    wheel_.Drain(now, [&](const ReclaimWheel::Record& record) {
      due_.push_back(record.item);
    });
    for (const uint32_t index : due_) {
      if (Idle(entries_[index], now.nanos())) {
        entries_.Erase(index);
      } else {
        wheel_.File(Due(entries_[index].last_seen_ns), index, 0);
      }
    }
    if (entries_.empty()) {
      entries_.Release();
      wheel_.Release();
      std::vector<uint32_t>().swap(due_);
    }
  }

  /// Entries held, idle ones no drain has reached yet included.
  size_t size() const { return entries_.size(); }

  /// Heap footprint: the table, the wheel's records and the drain buffer.
  size_t MemoryBytes() const {
    return entries_.MemoryBytes() + wheel_.MemoryBytes() +
           due_.capacity() * sizeof(uint32_t);
  }

 private:
  struct Entry {
    uint64_t key = 0;  // packed endpoint
    uint64_t hash = 0;
    int64_t last_seen_ns = 0;
    int shard = -1;
    uint32_t next_free = kNoEntry;
  };

  uint32_t Find(uint64_t key) const {
    return entries_.Find(std::hash<uint64_t>{}(key), [&](uint32_t index) {
      return entries_[index].key == key;
    });
  }
  bool Idle(const Entry& e, int64_t now_ns) const {
    return now_ns - e.last_seen_ns > horizon_ns_;
  }
  /// The first instant an entry last seen at `last_seen_ns` is idle.
  sim::Time Due(int64_t last_seen_ns) const {
    return sim::Time::FromNanos(last_seen_ns + horizon_ns_ + 1);
  }

  int64_t horizon_ns_;
  FlatTable<Entry> entries_;
  ReclaimWheel wheel_;         // one record per entry
  std::vector<uint32_t> due_;  // the running drain's entries
};

}  // namespace vids::ids
