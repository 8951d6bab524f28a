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
  char buf[24];
  char* end = buf;
  const uint32_t bits = ip.bits();
  for (int shift = 24; shift >= 0; shift -= 8) {
    end = std::to_chars(end, buf + sizeof(buf), (bits >> shift) & 0xFF).ptr;
    if (shift != 0) *end++ = '.';
  }
  if (port >= 0) {
    *end++ = ':';
    end = std::to_chars(end, buf + sizeof(buf), port).ptr;
  }
  out.assign(prefix);
  out.append(buf, end);
  return out;
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
      scenarios_(config) {
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
  for (auto* map : {&calls_, &keyed_str_}) {
    for (auto& [key, entry] : *map) delete entry.group;  // null: tombstone
  }
  for (auto& [key, entry] : keyed_bin_) delete entry.group;
  for (Recycler* recycler :
       {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
    for (efsm::MachineGroup* group : recycler->free) delete group;
  }
}

efsm::MachineGroup* CallStateFactBase::AcquireGroup(Recycler& recycler,
                                                    std::string_view name) {
  if (recycler.free.empty()) {
    auto* group = new efsm::MachineGroup(recycler.shape, std::string(name),
                                         scheduler_, observer_,
                                         &engine_metrics_);
    if (&recycler == &call_groups_) group->set_retirement_listener(this);
    return group;
  }
  efsm::MachineGroup* group = recycler.free.back();
  recycler.free.pop_back();
  group->Reset(name);
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

efsm::MachineGroup& CallStateFactBase::GetOrCreateCall(
    const std::string& call_id, bool& created) {
  auto it = calls_.find(call_id);
  if (it != calls_.end() && it->second.group != nullptr) {
    created = false;
    it->second.last_event = scheduler_.Now();
    return *it->second.group;
  }
  created = true;
  ++calls_created_;
  m_calls_created_->Inc();
  if (it != calls_.end()) --tombstones_;  // direct reuse of a tombstoned id
  efsm::MachineGroup* group = AcquireGroup(call_groups_, call_id);
  {
    obs::Record rec;
    rec.type = obs::RecordType::kFactAssert;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kCallCreated;
    group->flight_recorder().Record(rec);
  }
  StringNode& node = *calls_.try_emplace(call_id).first;
  node.second.group = group;
  node.second.last_event = scheduler_.Now();
  // A retiring machine finds its call entry through this, not by name.
  group->set_owner_data(&node);
  call_idle_.Push(node, node.second.last_event + config_.call_idle_timeout);
  m_active_calls_->Set(static_cast<int64_t>(call_count()));
  ArmSweepTimer();
  return *group;
}

efsm::MachineGroup* CallStateFactBase::FindCall(std::string_view call_id) {
  const auto it = calls_.find(call_id);
  return it != calls_.end() ? it->second.group : nullptr;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateKeyed(
    KeyedKind kind, const std::string& key) {
  switch (kind) {
    case KeyedKind::kMediaEndpoint:
      if (const auto endpoint = net::Endpoint::Parse(key)) {
        return GetOrCreateMediaGroup(*endpoint);
      }
      break;
    case KeyedKind::kDrdos:
      if (const auto victim = net::IpAddress::Parse(key)) {
        return GetOrCreateDrdosGroup(*victim);
      }
      break;
    case KeyedKind::kInviteFlood:
      return GetOrCreateInviteFlood(key);
  }
  // Unparseable media/victim keys.
  const std::string name =
      (kind == KeyedKind::kMediaEndpoint ? "media|" : "drdos|") + key;
  auto it = keyed_str_.find(name);
  if (it != keyed_str_.end()) {
    it->second.last_event = scheduler_.Now();
    return *it->second.group;
  }
  StringNode& node = *keyed_str_.try_emplace(name).first;
  node.second.group = AcquireGroup(
      kind == KeyedKind::kMediaEndpoint ? media_groups_ : drdos_groups_,
      name);
  node.second.last_event = scheduler_.Now();
  keyed_str_idle_.Push(node,
                       node.second.last_event + config_.keyed_idle_timeout);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return *node.second.group;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateInviteFlood(
    std::string_view aor) {
  // Runs per INVITE request: compose the map key in the reused scratch
  // string and find transparently so the hit path never allocates.
  key_scratch_.assign("flood|");
  key_scratch_.append(aor);
  auto it = keyed_str_.find(key_scratch_);
  if (it != keyed_str_.end()) {
    it->second.last_event = scheduler_.Now();
    return *it->second.group;
  }
  StringNode& node = *keyed_str_.try_emplace(key_scratch_).first;
  node.second.group = AcquireGroup(flood_groups_, key_scratch_);
  node.second.last_event = scheduler_.Now();
  keyed_str_idle_.Push(node,
                       node.second.last_event + config_.keyed_idle_timeout);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return *node.second.group;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateMediaGroup(
    const net::Endpoint& endpoint) {
  auto [it, inserted] = keyed_bin_.try_emplace(MediaKey(endpoint));
  Entry& entry = it->second;
  entry.last_event = scheduler_.Now();
  if (!inserted) return *entry.group;
  entry.group = AcquireGroup(
      media_groups_,
      KeyedName(key_scratch_, "media|", endpoint.ip, endpoint.port));
  keyed_bin_idle_.Push(*it, entry.last_event + config_.keyed_idle_timeout);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return *entry.group;
}

efsm::MachineGroup& CallStateFactBase::GetOrCreateDrdosGroup(
    net::IpAddress victim) {
  auto [it, inserted] = keyed_bin_.try_emplace(DrdosKey(victim));
  Entry& entry = it->second;
  entry.last_event = scheduler_.Now();
  if (!inserted) return *entry.group;
  entry.group =
      AcquireGroup(drdos_groups_, KeyedName(key_scratch_, "drdos|", victim));
  keyed_bin_idle_.Push(*it, entry.last_event + config_.keyed_idle_timeout);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
  ArmSweepTimer();
  return *entry.group;
}

bool CallStateFactBase::IsTombstoned(std::string_view call_id) const {
  const auto it = calls_.find(call_id);
  return it != calls_.end() && it->second.group == nullptr;
}

void CallStateFactBase::IndexMedia(const net::Endpoint& endpoint,
                                   const std::string& call_id) {
  const uint64_t key = endpoint.PackedKey();
  auto call_it = calls_.find(call_id);
  if (call_it != calls_.end() && call_it->second.group == nullptr) {
    call_it = calls_.end();  // a tombstone is no call
  }
  efsm::MachineGroup* group =
      call_it != calls_.end() ? call_it->second.group : nullptr;
  auto media_it = media_index_.find(key);
  if (media_it == media_index_.end()) {
    // Never create an index entry for a call that does not exist: the
    // reverse index that cleans media_index_ on deletion lives in the call
    // entry, so an ownerless entry would leak forever.
    if (group == nullptr) return;
    media_it = media_index_.try_emplace(key).first;
    ArmSweepTimer();
  }
  MediaEntry& media = media_it->second;
  if (media.call_id == call_id && media.group == group) return;  // no change
  if (media.group != nullptr && media.group != group) {
    // Re-negotiated to another call: the old call's flight log shows the
    // endpoint leaving (the media-hijack story reads directly off this).
    obs::Record rec;
    rec.type = obs::RecordType::kFactRetract;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaRetracted | key;
    media.group->flight_recorder().Record(rec);
  }
  media.call_id = call_id;
  media.group = group;
  if (call_it != calls_.end()) {
    auto& keys = call_it->second.media_keys;
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  if (group != nullptr) {
    obs::Record rec;
    rec.type = obs::RecordType::kFactAssert;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaIndexed | key;
    group->flight_recorder().Record(rec);
  }
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
}

void CallStateFactBase::RetractMedia(const net::Endpoint& endpoint) {
  const uint64_t key = endpoint.PackedKey();
  const auto it = media_index_.find(key);
  if (it == media_index_.end()) return;
  if (it->second.group != nullptr) {
    obs::Record rec;
    rec.type = obs::RecordType::kFactRetract;
    rec.when_ns = scheduler_.Now().nanos();
    rec.aux = FactAux::kMediaRetracted | key;
    it->second.group->flight_recorder().Record(rec);
  }
  // The owning call's reverse media_keys entry stays; Sweep's ownership
  // check tolerates keys that no longer resolve to this call.
  media_index_.erase(it);
  m_media_index_->Set(static_cast<int64_t>(media_index_.size()));
}

void CallStateFactBase::DropMediaKeyedGroup(const net::Endpoint& endpoint) {
  const auto it = keyed_bin_.find(MediaKey(endpoint));
  if (it == keyed_bin_.end()) return;
  efsm::MachineGroup* group = it->second.group;
  if (sweep_listener_) {
    // Same contract as a sweep reclaim: the analysis engine evicts the
    // group's alert-dedup signatures together with the state.
    const efsm::MachineGroup* reclaimed[] = {group};
    sweep_listener_(scheduler_.Now(), reclaimed);
  }
  keyed_bin_idle_.Erase(*it);
  keyed_bin_.erase(it);
  ReleaseGroup(group, /*in_sweep=*/false);
  m_keyed_groups_->Set(static_cast<int64_t>(keyed_count()));
}

std::optional<std::string> CallStateFactBase::CallByMedia(
    const net::Endpoint& endpoint) const {
  const auto it = media_index_.find(endpoint.PackedKey());
  if (it == media_index_.end()) return std::nullopt;
  return it->second.call_id;
}

efsm::MachineGroup* CallStateFactBase::FindGroupByMedia(
    const net::Endpoint& endpoint) const {
  const auto it = media_index_.find(endpoint.PackedKey());
  if (it == media_index_.end()) return nullptr;
  return it->second.group;
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
    // The fired event is no longer pending, so this re-arms. An empty fact
    // base schedules nothing; the next state creation re-arms the chain.
    if (HasTrackedState()) ArmSweepTimer();
  });
}

void CallStateFactBase::OnMachineRetired(
    const efsm::MachineInstance& machine) {
  // Installed on call groups only, whose owner data is their calls_ node.
  const size_t index = machine.index_in_group();
  if (index != kCallSip && index != kCallRtp) return;
  if (!CallComplete(machine.group())) return;
  auto* node = static_cast<StringNode*>(machine.group().owner_data());
  if (node->second.completion_candidate) return;
  node->second.completion_candidate = true;
  completion_candidates_.push_back(node);
}

template <typename NodeT, typename Reclaim>
uint64_t CallStateFactBase::DrainIdle(IdleHeap<NodeT>& heap,
                                      sim::Duration timeout, sim::Time now,
                                      Reclaim reclaim) {
  // A filed deadline never exceeds the entry's current last_event +
  // timeout (last_event only grows), so every entry that is idle at `now`
  // is popped here, and one that is not yet idle is re-filed under its
  // refreshed deadline, which is >= now.
  uint64_t popped = 0;
  while (!heap.empty() && heap.top_deadline() < now) {
    ++popped;
    NodeT& node = heap.top();
    const sim::Time deadline = node.second.last_event + timeout;
    if (deadline < now) {  // now - last_event > timeout
      heap.Erase(node);
      reclaim(node);
    } else {
      heap.RefileTop(deadline);
    }
  }
  return popped;
}

void CallStateFactBase::ReclaimCall(StringNode& node, sim::Time now) {
  const std::string& call_id = node.first;
  Entry& entry = node.second;
  entry.tombstone_expiry = now + config_.tombstone_ttl;
  tombstone_fifo_.push_back(TombstoneDue{entry.tombstone_expiry, &node});
  ++tombstones_;
  ++calls_deleted_;
  m_calls_deleted_->Inc();
  // Drop this call's media-endpoint index entries via the reverse index.
  // The ownership check keeps endpoints that were re-negotiated to another
  // call in the meantime.
  for (const uint64_t key : entry.media_keys) {
    const auto media_it = media_index_.find(key);
    if (media_it != media_index_.end() &&
        media_it->second.call_id == call_id) {
      media_index_.erase(media_it);
    }
  }
  entry.media_keys.clear();
  ReleaseGroup(entry.group, /*in_sweep=*/true);
  entry.group = nullptr;
}

void CallStateFactBase::ReleaseDrainedStorage() {
  call_idle_.Release();
  keyed_str_idle_.Release();
  keyed_bin_idle_.Release();
  std::vector<StringNode*>().swap(completion_candidates_);
  std::vector<TombstoneDue>().swap(tombstone_fifo_);
  tombstone_head_ = 0;
  std::vector<const efsm::MachineGroup*>().swap(swept_groups_);
  for (Recycler* recycler :
       {&call_groups_, &media_groups_, &flood_groups_, &drdos_groups_}) {
    for (efsm::MachineGroup* group : recycler->free) delete group;
    std::vector<efsm::MachineGroup*>().swap(recycler->free);
  }
}

void CallStateFactBase::Sweep(sim::Time now) {
  if (now < next_sweep_) return;
  next_sweep_ = now + config_.sweep_interval;
  m_sweeps_->Inc();
  const int64_t sweep_start = obs::MonotonicNanos();
  swept_groups_.clear();
  uint64_t examined = completion_candidates_.size();

  // Completed calls. Candidates go first, while every queued node is still
  // live: calls are erased only by Sweep, and reclaiming one retires no
  // machine, so the queue does not change underneath this loop.
  for (StringNode* node : completion_candidates_) {
    node->second.completion_candidate = false;
    if (CallComplete(*node->second.group)) {
      call_idle_.Erase(*node);
      ReclaimCall(*node, now);
    }
  }
  completion_candidates_.clear();

  examined += DrainIdle(call_idle_, config_.call_idle_timeout, now,
                        [&](StringNode& node) { ReclaimCall(node, now); });
  examined += DrainIdle(keyed_str_idle_, config_.keyed_idle_timeout, now,
                        [&](StringNode& node) {
                          ReleaseGroup(node.second.group, /*in_sweep=*/true);
                          keyed_str_.erase(keyed_str_.find(node.first));
                        });
  examined += DrainIdle(keyed_bin_idle_, config_.keyed_idle_timeout, now,
                        [&](BinaryNode& node) {
                          ReleaseGroup(node.second.group, /*in_sweep=*/true);
                          const uint64_t key = node.first;
                          keyed_bin_.erase(key);
                        });

  // Tombstones: expiries are sweep instants plus one TTL, so the FIFO is
  // in expiry order.
  while (tombstone_head_ < tombstone_fifo_.size() &&
         tombstone_fifo_[tombstone_head_].expiry <= now) {
    ++examined;
    const TombstoneDue due = tombstone_fifo_[tombstone_head_++];
    const Entry& entry = due.node->second;
    if (entry.group == nullptr && entry.tombstone_expiry == due.expiry) {
      --tombstones_;
      calls_.erase(calls_.find(due.node->first));
    }
  }
  if (tombstone_head_ * 2 >= tombstone_fifo_.size()) {
    // Amortized O(1) compaction: each record moves at most once per time
    // the consumed prefix outgrows the rest.
    tombstone_fifo_.erase(
        tombstone_fifo_.begin(),
        tombstone_fifo_.begin() + static_cast<ptrdiff_t>(tombstone_head_));
    tombstone_head_ = 0;
  }

  m_sweep_examined_->Inc(examined);
  // The listener reads the reclaimed groups' names, so it runs before any
  // parked group can be freed.
  if (sweep_listener_) sweep_listener_(now, swept_groups_);
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
      recycler->swept = 0;
    }
  } else {
    ReleaseDrainedStorage();
  }
  m_sweep_ns_->Record(obs::MonotonicNanos() - sweep_start);
  UpdateGauges();
}

size_t CallStateFactBase::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [call_id, entry] : calls_) {  // calls and tombstones
    bytes += call_id.capacity() + sizeof(Entry) +
             entry.media_keys.capacity() * sizeof(uint64_t);
    if (entry.group != nullptr) bytes += entry.group->MemoryBytes();
  }
  for (const auto& [key, entry] : keyed_str_) {
    bytes += key.capacity() + sizeof(Entry) + entry.group->MemoryBytes();
  }
  for (const auto& [key, entry] : keyed_bin_) {
    bytes += sizeof(uint64_t) + sizeof(Entry) + entry.group->MemoryBytes();
  }
  for (const auto& [key, media] : media_index_) {
    bytes += sizeof(uint64_t) + sizeof(MediaEntry) + media.call_id.capacity();
  }
  bytes += FreeListBytes();
  bytes += call_idle_.MemoryBytes() + keyed_str_idle_.MemoryBytes() +
           keyed_bin_idle_.MemoryBytes() +
           completion_candidates_.capacity() * sizeof(StringNode*) +
           tombstone_fifo_.capacity() * sizeof(TombstoneDue) +
           swept_groups_.capacity() * sizeof(const efsm::MachineGroup*);
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
    const std::string& call_id) const {
  const auto it = calls_.find(call_id);
  if (it == calls_.end() || it->second.group == nullptr) return std::nullopt;
  return it->second.group->MemoryBytes();
}

}  // namespace vids::ids
