#include "vids/fact_base.h"

#include <algorithm>
#include <charconv>

#include "vids/classifier.h"

namespace vids::ids {

namespace {

// keyed_bin_ keys: the endpoint/IP payload occupies bits 0..47, the family
// tag sits above so media and DRDoS keys can share one map.
constexpr uint64_t kMediaTag = uint64_t{1} << 56;
constexpr uint64_t kDrdosTag = uint64_t{2} << 56;

uint64_t MediaKey(const net::Endpoint& endpoint) {
  return kMediaTag | endpoint.PackedKey();
}

uint64_t DrdosKey(net::IpAddress victim) {
  return kDrdosTag | victim.bits();
}

// `prefix` + dotted quad (+ ":port" when `port` >= 0) into `out`, reusing
// its capacity: the same text as the ToString() forms, without their
// temporaries.
const std::string& KeyedName(std::string& out, std::string_view prefix,
                             net::IpAddress ip, int port = -1) {
  net::IpAddress::FormatBuffer ip_text;
  out.assign(prefix);
  out.append(ip.Format(ip_text));
  if (port >= 0) {
    char buf[8];
    out.push_back(':');
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), port).ptr);
  }
  return out;
}

// The instant from which an entry last touched at `last_event` is idle:
// a sweep reclaims it once now - last_event > timeout.
sim::Time IdleDue(sim::Time last_event, sim::Duration timeout) {
  return last_event + timeout + sim::Duration::Nanos(1);
}

// A sweep's reclaim touches a few cache lines per entry, scattered over the
// slab, the groups and the table index. Loading entry k + 2·kAhead, and the
// lines that entry k + kAhead points at, while entry k is reclaimed
// overlaps those misses instead of paying them one after another.
constexpr size_t kAhead = 4;

template <typename Table, typename Reclaim>
void ReclaimPrefetched(const Table& table, std::span<const uint32_t> indexes,
                       Reclaim reclaim) {
  const size_t n = indexes.size();
  for (size_t k = 0; k < n; ++k) {
    if (k + 2 * kAhead < n) __builtin_prefetch(&table[indexes[k + 2 * kAhead]]);
    if (k + kAhead < n) {
      const uint32_t ahead = indexes[k + kAhead];
      const auto& entry = table[ahead];
      if (entry.group != nullptr) {
        // Parking a group reads its first two lines (shape, ring head,
        // timer handles).
        __builtin_prefetch(entry.group);
        __builtin_prefetch(reinterpret_cast<const char*>(entry.group) + 64);
      }
      if constexpr (requires { entry.media; }) {
        if (!entry.media.empty()) __builtin_prefetch(entry.media.data());
      }
      table.PrefetchIndexSlot(ahead);
    }
    reclaim(indexes[k]);
  }
}

}  // namespace

CallStateFactBase::CallStateFactBase(sim::Scheduler& scheduler,
                                     const DetectionConfig& config,
                                     efsm::Observer* observer,
                                     obs::MetricsRegistry* registry)
    : scheduler_(scheduler),
      config_(config),
      observer_(observer),
      sip_spec_(BuildSipSpecMachine(config)),
      rtp_spec_(BuildRtpSpecMachine(config)),
      scenarios_(config),
      wheel_(config.sweep_interval) {
  // The shapes' AddMachine order is the CallMachine / MediaMachine order.
  efsm::GroupShape& call = call_groups_.shape;
  call.AddMachine(sip_spec_, std::string(kSipMachineName));
  const size_t rtp = call.AddMachine(rtp_spec_, std::string(kRtpMachineName));
  call.AddMachine(scenarios_.cancel_dos, "cancel-dos");
  call.AddMachine(scenarios_.hijack, "hijack");
  if (config_.enable_cross_protocol) {
    call.RouteChannel(std::string(kSipToRtpChannel), rtp);
  }
  efsm::GroupShape& media = media_groups_.shape;
  media.AddMachine(scenarios_.media_spam, "media-spam");
  media.AddMachine(scenarios_.rtp_flood, "rtp-flood");
  media.AddMachine(scenarios_.rtcp_bye, "rtcp-bye");
  flood_groups_.shape.AddMachine(scenarios_.invite_flood, "invite-flood");
  drdos_groups_.shape.AddMachine(scenarios_.drdos, "drdos");
  if (registry != nullptr) {
    engine_metrics_ = efsm::EngineMetrics::Registered(*registry);
    m_calls_created_ = &registry->GetCounter("vids.calls_created");
    m_calls_deleted_ = &registry->GetCounter("vids.calls_deleted");
    m_sweeps_ = &registry->GetCounter("vids.sweeps");
    m_sweep_examined_ = &registry->GetCounter("vids.sweep_examined");
    m_sweep_ns_ = &registry->GetHistogram("vids.sweep_ns");
    m_active_calls_ = &registry->GetGauge("vids.active_calls");
    m_keyed_groups_ = &registry->GetGauge("vids.keyed_groups");
    m_media_index_ = &registry->GetGauge("vids.media_index_size");
    m_tombstones_ = &registry->GetGauge("vids.tombstones");
  }
}

CallStateFactBase::~CallStateFactBase() {
  // Erased entries and tombstones hold no group.
  const auto delete_group = [](const auto& entry) { delete entry.group; };
  calls_.ForEachEntry(delete_group);
  keyed_str_.ForEachEntry(delete_group);
  keyed_bin_.ForEachEntry(delete_group);
  for (Recycler* recycler :
       {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
    for (efsm::MachineGroup* group : recycler->free) delete group;
  }
}

efsm::MachineGroup* CallStateFactBase::AcquireGroup(Recycler& recycler,
                                                    std::string_view name) {
  efsm::MachineGroup* group = nullptr;
  if (recycler.free.empty()) {
    group = new efsm::MachineGroup(recycler.shape, std::string(name),
                                   scheduler_, observer_, &engine_metrics_);
    if (&recycler == &call_groups_) group->set_retirement_listener(this);
  } else {
    group = recycler.free.back();
    recycler.free.pop_back();
    group->Reset(name);
  }
  group->set_serial(++last_serial_);
  return group;
}

void CallStateFactBase::ReleaseGroup(efsm::MachineGroup* group,
                                     bool in_sweep) {
  // Cancel now, not at reuse: a pending expiry must not fire into a group
  // no call owns.
  group->Reclaim();
  Recycler& recycler = RecyclerOf(*group);
  recycler.free.push_back(group);
  if (in_sweep) {
    ++recycler.swept;
    // The chunks stay with the group until it is reset.
    recycler.swept_chunks += group->flight_recorder().chunk_count();
    swept_groups_.push_back(group);
  }
}

CallStateFactBase::Recycler& CallStateFactBase::RecyclerOf(
    const efsm::MachineGroup& group) {
  const efsm::GroupShape* shape = &group.shape();
  if (shape == &call_groups_.shape) return call_groups_;
  if (shape == &media_groups_.shape) return media_groups_;
  if (shape == &flood_groups_.shape) return flood_groups_;
  return drdos_groups_;
}

std::string CallStateFactBase::DecodeFactRecord(const obs::Record& record) {
  if (record.type != obs::RecordType::kFactAssert &&
      record.type != obs::RecordType::kFactRetract) {
    return {};
  }
  const uint64_t tag = record.aux & FactAux::kTagMask;
  const net::Endpoint endpoint{
      net::IpAddress(static_cast<uint32_t>((record.aux >> 16) & 0xFFFFFFFF)),
      static_cast<uint16_t>(record.aux & 0xFFFF)};
  switch (tag) {
    case FactAux::kCallCreated:
      return "fact: call state created";
    case FactAux::kMediaIndexed:
      return "fact: media endpoint " + endpoint.ToString() +
             " indexed to this call";
    case FactAux::kMediaRetracted:
      return "fact: media endpoint " + endpoint.ToString() +
             " re-pointed away from this call";
    default:
      return {};
  }
}

void CallStateFactBase::UpdateGauges() {
  m_active_calls_->Set(static_cast<int64_t>(call_count()));
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
  m_tombstones_->Set(static_cast<int64_t>(tombstones_));
}

template <typename Entry>
void CallStateFactBase::FileIdle(Entry& entry, uint32_t index, DueTable tag,
                                 sim::Duration timeout) {
  // A pending record, left by the entry's previous use, is due no later
  // than this one would be: the entry adopts it.
  if (entry.idle_filed) return;
  entry.idle_filed = true;
  wheel_.File(IdleDue(entry.last_event, timeout), index, tag);
}

uint32_t CallStateFactBase::FindCallEntry(std::string_view call_id,
                                          uint64_t hash) const {
  return calls_.Find(
      hash, [&](uint32_t index) { return calls_[index].call_id == call_id; });
}

efsm::MachineGroup* CallStateFactBase::AdmitCall(std::string_view call_id,
                                                 bool& created) {
  const uint64_t hash = common::StringHash{}(call_id);
  uint32_t index = FindCallEntry(call_id, hash);
  if (index != kNoEntry) {
    CallEntry& entry = calls_[index];
    if (entry.group == nullptr) return nullptr;  // tombstone
    created = false;
    entry.last_event = scheduler_.Now();
    return entry.group;
  }
  index = calls_.Insert(hash);
  calls_[index].call_id.assign(call_id);
  created = true;
  return &OpenCall(index);
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateCall(
    std::string_view call_id, bool& created) {
  if (efsm::MachineGroup* group = AdmitCall(call_id, created)) return *group;
  // A tombstone: its entry opens the call again.
  --tombstones_;
  created = true;
  return OpenCall(FindCallEntry(call_id, common::StringHash{}(call_id)));
}

efsm::MachineGroup& CallStateFactBase::OpenCall(uint32_t index) {
  ++calls_created_;
  m_calls_created_->Inc();
  CallEntry& entry = calls_[index];
  efsm::MachineGroup* group = AcquireGroup(call_groups_, entry.call_id);
  {
    obs::Record rec;
    rec.type = obs::RecordType::kFactAssert;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kCallCreated;
    group->flight_recorder().Record(rec);
  }
  entry.group = group;
  entry.last_event = scheduler_.Now();
  // A retiring machine finds its call entry through this, not by name.
  group->set_owner_index(index);
  FileIdle(entry, index, kCallIdle, config_.call_idle_timeout);
  m_active_calls_->Set(static_cast<int64_t>(call_count()));
  ArmSweepTimer();
  return *group;
}

efsm::MachineGroup* CallStateFactBase::FindCall(std::string_view call_id) {
  const uint32_t index =
      FindCallEntry(call_id, common::StringHash{}(call_id));
  return index != kNoEntry ? calls_[index].group : nullptr;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateInviteFlood(
    std::string_view aor) {
  // Runs per INVITE request: compose the key in the reused scratch string
  // so the hit path never allocates.
  key_scratch_.assign("flood|");
  key_scratch_.append(aor);
  const std::string_view name = key_scratch_;
  const uint64_t hash = common::StringHash{}(name);
  uint32_t index = keyed_str_.Find(
      hash, [&](uint32_t i) { return keyed_str_[i].key == name; });
  if (index != kNoEntry) {
    keyed_str_[index].last_event = scheduler_.Now();
    return *keyed_str_[index].group;
  }
  index = keyed_str_.Insert(hash);
  auto& entry = keyed_str_[index];
  entry.key.assign(name);
  entry.group = AcquireGroup(flood_groups_, name);
  entry.last_event = scheduler_.Now();
  FileIdle(entry, index, kFloodIdle, config_.keyed_idle_timeout);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return *entry.group;
}

template <typename Name>
efsm::MachineGroup& CallStateFactBase::GetOrCreateBinary(Recycler& recycler,
                                                         uint64_t key,
                                                         Name name) {
  const uint64_t hash = std::hash<uint64_t>{}(key);
  uint32_t index = keyed_bin_.Find(
      hash, [&](uint32_t i) { return keyed_bin_[i].key == key; });
  if (index != kNoEntry) {
    keyed_bin_[index].last_event = scheduler_.Now();
    return *keyed_bin_[index].group;
  }
  index = keyed_bin_.Insert(hash);
  auto& entry = keyed_bin_[index];
  entry.key = key;
  entry.group = AcquireGroup(recycler, name());
  entry.last_event = scheduler_.Now();
  FileIdle(entry, index, kBinaryIdle, config_.keyed_idle_timeout);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return *entry.group;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateMediaGroup(
    const net::Endpoint& endpoint) {
  return GetOrCreateBinary(
      media_groups_, MediaKey(endpoint), [&]() -> std::string_view {
        return KeyedName(key_scratch_, "media|", endpoint.ip, endpoint.port);
      });
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateDrdosGroup(
    net::IpAddress victim) {
  return GetOrCreateBinary(drdos_groups_, DrdosKey(victim),
                           [&]() -> std::string_view {
                             return KeyedName(key_scratch_, "drdos|", victim);
                           });
}

bool CallStateFactBase::IsTombstoned(std::string_view call_id) const {
  const uint32_t index =
      FindCallEntry(call_id, common::StringHash{}(call_id));
  return index != kNoEntry && calls_[index].group == nullptr;
}

uint32_t CallStateFactBase::FindMedia(uint64_t key) const {
  return media_index_.Find(std::hash<uint64_t>{}(key), [&](uint32_t index) {
    return media_index_[index].key == key;
  });
}

void CallStateFactBase::EraseMedia(uint32_t index) {
  media_index_[index].call = kNoEntry;
  media_index_.Erase(index);
}

void CallStateFactBase::IndexMedia(const net::Endpoint& endpoint,
                                   std::string_view call_id) {
  uint32_t call = FindCallEntry(call_id, common::StringHash{}(call_id));
  if (call != kNoEntry && calls_[call].group == nullptr) {
    call = kNoEntry;  // a tombstone is no call
  }
  IndexMediaTo(endpoint.PackedKey(), call);
}

void CallStateFactBase::IndexMedia(const net::Endpoint& endpoint,
                                   const efsm::MachineGroup& call) {
  IndexMediaTo(endpoint.PackedKey(), call.owner_index());
}

void CallStateFactBase::IndexMediaTo(uint64_t key, uint32_t call) {
  // Never index an endpoint to a call that does not exist: the reverse
  // list that cleans media_index_ on deletion lives in the call entry, so
  // an ownerless entry would leak forever.
  if (call == kNoEntry) return;
  uint32_t index = FindMedia(key);
  if (index == kNoEntry) {
    index = media_index_.Insert(std::hash<uint64_t>{}(key));
    media_index_[index].key = key;
    ArmSweepTimer();
  }
  MediaEntry& media = media_index_[index];
  if (media.call == call) return;  // no change
  if (media.call != kNoEntry) {
    // Re-negotiated to another call: the old call's flight log shows the
    // endpoint leaving (the media-hijack story reads directly off this).
    obs::Record rec;
    rec.type = obs::RecordType::kFactRetract;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaRetracted | key;
    calls_[media.call].group->flight_recorder().Record(rec);
  }
  media.call = call;
  CallEntry& owner = calls_[call];
  if (std::find(owner.media.begin(), owner.media.end(), index) ==
      owner.media.end()) {
    owner.media.push_back(index);
  }
  obs::Record rec;
  rec.type = obs::RecordType::kFactAssert;
  rec.when_ns = scheduler_.Now().nanos();
  rec.aux = FactAux::kMediaIndexed | key;
  owner.group->flight_recorder().Record(rec);
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
}

void CallStateFactBase::RetractMedia(const net::Endpoint& endpoint) {
  const uint64_t key = endpoint.PackedKey();
  const uint32_t index = FindMedia(key);
  if (index == kNoEntry) return;
  obs::Record rec;
  rec.type = obs::RecordType::kFactRetract;
  rec.when_ns = scheduler_.Now().nanos();
  rec.aux = FactAux::kMediaRetracted | key;
  calls_[media_index_[index].call].group->flight_recorder().Record(rec);
  // The owning call's reverse list keeps the index; the call's reclaim
  // skips it, since the entry no longer names the call.
  EraseMedia(index);
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
}

void CallStateFactBase::DropMediaKeyedGroup(const net::Endpoint& endpoint) {
  const uint64_t key = MediaKey(endpoint);
  const uint32_t index = keyed_bin_.Find(
      std::hash<uint64_t>{}(key),
      [&](uint32_t i) { return keyed_bin_[i].key == key; });
  if (index == kNoEntry) return;
  efsm::MachineGroup* group = keyed_bin_[index].group;
  // The entry's idle record stays in the wheel: dropped when it comes due,
  // or adopted by the entry's next group.
  keyed_bin_[index].group = nullptr;
  keyed_bin_.Erase(index);
  ReleaseGroup(group, /*in_sweep=*/false);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
}

std::optional<std::string> CallStateFactBase::CallByMedia(
    const net::Endpoint& endpoint) const {
  const uint32_t index = FindMedia(endpoint.PackedKey());
  if (index == kNoEntry) return std::nullopt;
  return calls_[media_index_[index].call].call_id;
}

efsm::MachineGroup* CallStateFactBase::FindGroupByMedia(
    const net::Endpoint& endpoint) const {
  const uint32_t index = FindMedia(endpoint.PackedKey());
  if (index == kNoEntry) return nullptr;
  return calls_[media_index_[index].call].group;
}

bool CallStateFactBase::CallComplete(const efsm::MachineGroup& group) const {
  const efsm::MachineInstance& rtp = group.machine(kCallRtp);
  return group.machine(kCallSip).retired() &&
         (rtp.retired() || rtp.state() == rtp.def().initial_state());
}

void CallStateFactBase::ArmSweepTimer() {
  if (scheduler_.IsPending(sweep_event_)) return;
  sweep_event_ = scheduler_.ScheduleAfter(config_.sweep_interval, [this] {
    Sweep(scheduler_.Now());
    // The fired event is no longer pending, so this re-arms. With nothing
    // left to reclaim here or in the listener's tables it schedules
    // nothing; the next state creation re-arms the chain.
    if (HasTrackedState() || listener_holds_state_) ArmSweepTimer();
  });
}

void CallStateFactBase::OnMachineRetired(
    const efsm::MachineInstance& machine) {
  // Installed on call groups only, whose owner index is their calls_ entry.
  const size_t index = machine.index_in_group();
  if (index != kCallSip && index != kCallRtp) return;
  if (!CallComplete(machine.group())) return;
  const uint32_t call = machine.group().owner_index();
  CallEntry& entry = calls_[call];
  if (entry.completion_candidate) return;
  entry.completion_candidate = true;
  completion_candidates_.push_back(call);
}

template <typename Table, typename Reclaim>
void CallStateFactBase::DrainIdle(Table& table, DueTable tag,
                                  sim::Duration timeout, sim::Time now,
                                  Reclaim reclaim) {
  // A filed due instant never exceeds the entry's current one (last_event
  // only grows), so every entry idle at `now` has its record here, and one
  // not yet idle moves to the slot of its refreshed due instant, > now.
  ReclaimPrefetched(table, due_[tag], [&](uint32_t index) {
    auto& entry = table[index];
    if (entry.group == nullptr) {  // stale: no live group holds the entry
      entry.idle_filed = false;
      return;
    }
    const sim::Time due = IdleDue(entry.last_event, timeout);
    if (due <= now) {  // now - last_event > timeout
      entry.idle_filed = false;
      reclaim(index);
    } else {
      wheel_.File(due, index, tag);
    }
  });
}

void CallStateFactBase::ReclaimCall(uint32_t index, sim::Time now) {
  CallEntry& entry = calls_[index];
  entry.tombstone_expiry = now + config_.tombstone_ttl;
  if (!entry.tombstone_filed) {
    entry.tombstone_filed = true;
    if (entry.tombstone_expiry <= now) {
      // A TTL of zero: the tombstone phase of this sweep expires it.
      due_[kTombstoneDue].push_back(index);
    } else {
      wheel_.File(entry.tombstone_expiry, index, kTombstoneDue);
    }
  }
  ++tombstones_;
  ++calls_deleted_;
  m_calls_deleted_->Inc();
  // Drop this call's media-endpoint index entries via the reverse list.
  // The ownership check keeps endpoints that were re-negotiated to another
  // call in the meantime, and entries erased and reused since.
  for (const uint32_t media : entry.media) {
    if (media_index_[media].call == index) EraseMedia(media);
  }
  entry.media.clear();
  ReleaseGroup(entry.group, /*in_sweep=*/true);
  entry.group = nullptr;
}

void CallStateFactBase::ReleaseDrainedStorage() {
  calls_.Release();
  keyed_str_.Release();
  keyed_bin_.Release();
  media_index_.Release();
  // Records of erased entries may remain; they go with the tables.
  wheel_.Release();
  std::vector<uint32_t>().swap(completion_candidates_);
  for (auto& due : due_) std::vector<uint32_t>().swap(due);
  std::vector<const efsm::MachineGroup*>().swap(swept_groups_);
  for (Recycler* recycler :
       {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
    for (efsm::MachineGroup* group : recycler->free) delete group;
    std::vector<efsm::MachineGroup*>().swap(recycler->free);
    recycler->shape.ReleaseShared();
  }
}

void CallStateFactBase::Sweep(sim::Time now) {
  if (now < next_sweep_) return;
  next_sweep_ = now + config_.sweep_interval;
  m_sweeps_->Inc();
  const int64_t sweep_start = obs::MonotonicNanos();
  swept_groups_.clear();
  for (auto& due : due_) due.clear();
  uint64_t examined = completion_candidates_.size();

  // Completed calls. Candidates go first, while every queued call is still
  // live: calls are reclaimed only by Sweep, and reclaiming one retires no
  // machine, so the queue does not change underneath this loop. A
  // reclaimed call's idle record stays in the wheel, stale.
  ReclaimPrefetched(calls_, completion_candidates_, [&](uint32_t call) {
    CallEntry& entry = calls_[call];
    entry.completion_candidate = false;
    if (CallComplete(*entry.group)) ReclaimCall(call, now);
  });
  completion_candidates_.clear();

  // The records due at `now`, sorted by table; each table's are then
  // settled in one pass that prefetches a few records ahead.
  wheel_.Drain(now, [&](const ReclaimWheel::Record& record) {
    due_[record.table].push_back(record.item);
  });
  DrainIdle(calls_, kCallIdle, config_.call_idle_timeout, now,
            [&](uint32_t call) { ReclaimCall(call, now); });
  const auto reclaim_keyed = [this](auto& keyed) {
    return [this, table = &keyed](uint32_t index) {
      ReleaseGroup((*table)[index].group, /*in_sweep=*/true);
      (*table)[index].group = nullptr;
      table->Erase(index);
    };
  };
  DrainIdle(keyed_str_, kFloodIdle, config_.keyed_idle_timeout, now,
            reclaim_keyed(keyed_str_));
  DrainIdle(keyed_bin_, kBinaryIdle, config_.keyed_idle_timeout, now,
            reclaim_keyed(keyed_bin_));

  // Tombstones, last, so a call reclaimed by this sweep under a zero TTL
  // expires in it too. A record of a reopened call is stale; one of a
  // call tombstoned again since it was filed moves to the later expiry.
  ReclaimPrefetched(calls_, due_[kTombstoneDue], [&](uint32_t call) {
    CallEntry& entry = calls_[call];
    entry.tombstone_filed = false;
    if (entry.group != nullptr) return;
    if (entry.tombstone_expiry <= now) {
      --tombstones_;
      calls_.Erase(call);
    } else {
      entry.tombstone_filed = true;
      wheel_.File(entry.tombstone_expiry, call, kTombstoneDue);
    }
  });
  for (const auto& due : due_) examined += due.size();

  m_sweep_examined_->Inc(examined);
  // The listener may read the reclaimed groups, so it runs before any
  // parked group can be freed.
  if (sweep_listener_) {
    listener_holds_state_ = sweep_listener_(now, swept_groups_);
  }
  if (HasTrackedState()) {
    for (Recycler* recycler :
         {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
      // Keep the groups this sweep reclaimed (the newest, at the back):
      // about what the next interval admits at the current churn.
      auto& free = recycler->free;
      if (free.size() > recycler->swept) {
        const auto excess =
            static_cast<ptrdiff_t>(free.size() - recycler->swept);
        for (auto it = free.begin(); it != free.begin() + excess; ++it) {
          delete *it;
        }
        free.erase(free.begin(), free.begin() + excess);
      }
      recycler->shape.TrimFlightPool(recycler->swept_chunks);
      recycler->swept = 0;
      recycler->swept_chunks = 0;
    }
  } else {
    ReleaseDrainedStorage();
  }
  m_sweep_ns_->Record(obs::MonotonicNanos() - sweep_start);
  UpdateGauges();
}

size_t CallStateFactBase::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  // Every slab entry counts, erased ones too: they keep their key and media
  // list capacity for the next entry.
  const auto group_bytes = [&](const auto& entry) {
    if (entry.group != nullptr) bytes += entry.group->MemoryBytes();
  };
  calls_.ForEachEntry([&](const CallEntry& entry) {  // calls and tombstones
    bytes += common::StringHeapBytes(entry.call_id) +
             entry.media.capacity() * sizeof(uint32_t);
    group_bytes(entry);
  });
  keyed_str_.ForEachEntry([&](const auto& entry) {
    bytes += common::StringHeapBytes(entry.key);
    group_bytes(entry);
  });
  keyed_bin_.ForEachEntry(group_bytes);
  bytes += calls_.MemoryBytes() + keyed_str_.MemoryBytes() +
           keyed_bin_.MemoryBytes() + media_index_.MemoryBytes();
  bytes += FreeListBytes();
  for (const Recycler* recycler :
       {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
    bytes += recycler->shape.SharedBytes();
  }
  bytes += wheel_.MemoryBytes() +
           completion_candidates_.capacity() * sizeof(uint32_t) +
           swept_groups_.capacity() * sizeof(const efsm::MachineGroup*);
  for (const auto& due : due_) bytes += due.capacity() * sizeof(uint32_t);
  return bytes;
}

size_t CallStateFactBase::FreeListBytes() const {
  size_t bytes = 0;
  for (const Recycler* recycler :
       {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
    bytes += recycler->free.capacity() * sizeof(efsm::MachineGroup*);
    for (const efsm::MachineGroup* group : recycler->free) {
      bytes += group->MemoryBytes();
    }
  }
  return bytes;
}

size_t CallStateFactBase::free_group_count() const {
  return call_groups_.free.size() + media_groups_.free.size() +
         flood_groups_.free.size() + drdos_groups_.free.size();
}

std::optional<size_t> CallStateFactBase::CallMemoryBytes(
    std::string_view call_id) const {
  const uint32_t index =
      FindCallEntry(call_id, common::StringHash{}(call_id));
  if (index == kNoEntry || calls_[index].group == nullptr) return std::nullopt;
  return calls_[index].group->MemoryBytes();
}

}  // namespace vids::ids
