// Coordinator-private media-endpoint → owning-shard map.
//
// The sharded engine routes RTP/RTCP by the media endpoint's owner: the
// shard of the call whose SDP negotiated it (DESIGN.md §11). Only the
// coordinator thread routes, and it sees every claim in stream order, so
// the map is a plain single-writer hash map — each entry is the current
// owner plus a last-seen stamp for idle pruning.
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
#include <unordered_map>

namespace vids::ids {

class MediaOwnerMap {
 public:
  /// The shard that must drop its state for the endpoint (-1: none);
  /// `early` marks a first claim over pre-negotiation (hash-routed) media.
  struct Retract {
    int shard = -1;
    bool early = false;
  };

  /// The shard owning `key`, or -1. A hit refreshes the idle stamp.
  int Lookup(uint64_t key, int64_t when_ns) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return -1;
    it->second.last_seen_ns = when_ns;
    return it->second.shard;
  }

  /// `shard` claims `key` at `when_ns`; `hash_shard` is where the endpoint's
  /// media routed while unclaimed.
  Retract Claim(uint64_t key, int shard, int64_t when_ns, int hash_shard) {
    const auto [it, inserted] =
        entries_.try_emplace(key, Entry{shard, when_ns});
    if (inserted) {
      return hash_shard != shard ? Retract{hash_shard, true} : Retract{};
    }
    Entry& e = it->second;
    e.last_seen_ns = when_ns;
    const int previous = e.shard;
    e.shard = shard;
    return previous != shard ? Retract{previous, false} : Retract{};
  }

  /// Drops entries neither claimed nor looked up for more than `horizon_ns`.
  void Prune(int64_t now_ns, int64_t horizon_ns) {
    std::erase_if(entries_, [&](const auto& kv) {
      return now_ns - kv.second.last_seen_ns > horizon_ns;
    });
  }

  size_t size() const { return entries_.size(); }

  /// Approximate footprint: bucket array plus one node per entry.
  size_t MemoryBytes() const {
    return sizeof(*this) + entries_.bucket_count() * sizeof(void*) +
           entries_.size() * (sizeof(void*) + sizeof(uint64_t) + sizeof(Entry));
  }

 private:
  struct Entry {
    int shard;
    int64_t last_seen_ns;
  };
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace vids::ids
