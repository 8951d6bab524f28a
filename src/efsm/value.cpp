#include "efsm/value.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/strings.h"

namespace vids::efsm {

namespace {

const Value kUnset{};

// Append-only intern pool, shared by every engine in the process (ArgKey
// ids cross thread boundaries: a shard worker's hook events are decoded by
// the sharded coordinator). Readers are lock-free: lookup probes an
// open-addressing table of entry pointers published with release stores,
// so the single-threaded per-packet path pays no lock. Writers (first
// intern of a new name — cold, names are static spellings in code)
// serialize on a mutex. A deque keeps entry addresses stable; slots are
// never emptied, so a reader that hits nullptr has seen every entry
// published before its probe began and falls through to the write path.
// Meyers singleton: safe to intern from static initializers of other
// translation units.
constexpr size_t kMaxKeys = 4096;
constexpr size_t kTableSize = 8192;  // power of two, 2x keys keeps probes short

struct InternEntry {
  std::string name;
  uint16_t id;
};

struct ArgKeyPool {
  std::atomic<InternEntry*> slots[kTableSize] = {};
  std::atomic<InternEntry*> by_id[kMaxKeys] = {};
  std::mutex write_mu;
  std::deque<InternEntry> storage;  // guarded by write_mu
};

ArgKeyPool& Pool() {
  static ArgKeyPool pool;
  return pool;
}

size_t ProbeStart(std::string_view name) {
  return std::hash<std::string_view>{}(name) & (kTableSize - 1);
}

InternEntry* FindPublished(ArgKeyPool& pool, std::string_view name,
                           size_t& probe) {
  probe = ProbeStart(name);
  for (;;) {
    InternEntry* entry = pool.slots[probe].load(std::memory_order_acquire);
    if (entry == nullptr) return nullptr;
    if (entry->name == name) return entry;
    probe = (probe + 1) & (kTableSize - 1);
  }
}

}  // namespace

ArgKey ArgKey::Intern(std::string_view name) {
  ArgKeyPool& pool = Pool();
  size_t probe = 0;
  if (const InternEntry* entry = FindPublished(pool, name, probe)) {
    return ArgKey(entry->id);
  }
  std::lock_guard<std::mutex> lock(pool.write_mu);
  // Re-probe under the lock: another thread may have interned `name`
  // between the lock-free miss and lock acquisition.
  if (const InternEntry* entry = FindPublished(pool, name, probe)) {
    return ArgKey(entry->id);
  }
  if (pool.storage.size() >= kMaxKeys) {
    throw std::length_error("ArgKey: intern pool exhausted");
  }
  const auto id = static_cast<uint16_t>(pool.storage.size());
  InternEntry& stored = pool.storage.emplace_back(
      InternEntry{std::string(name), id});
  pool.by_id[id].store(&stored, std::memory_order_release);
  pool.slots[probe].store(&stored, std::memory_order_release);
  return ArgKey(id);
}

std::string_view ArgKey::name() const {
  if (!valid()) return "<invalid>";
  return NameOfId(id_);
}

std::string_view ArgKey::NameOfId(uint16_t id) {
  if (id >= kMaxKeys) return "<invalid>";
  const InternEntry* entry = Pool().by_id[id].load(std::memory_order_acquire);
  return entry ? std::string_view(entry->name) : "<invalid>";
}

std::string ToString(const Value& value) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "<unset>"; }
    std::string operator()(int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const { return std::to_string(v); }
    std::string operator()(const std::string& v) const { return v; }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
  };
  return std::visit(Visitor{}, value);
}

// ------------------------------------------------------------ EventArgs

EventArgs::EventArgs(const EventArgs& other) : size_(other.size_) {
  if (other.spilled()) {
    heap_ = other.heap_;
  } else {
    for (uint32_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
  }
}

EventArgs::EventArgs(EventArgs&& other) noexcept : size_(other.size_) {
  if (other.spilled()) {
    heap_ = std::move(other.heap_);
  } else {
    for (uint32_t i = 0; i < size_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
  }
  other.size_ = 0;
  other.heap_.clear();
}

EventArgs& EventArgs::operator=(const EventArgs& other) {
  if (this == &other) return *this;
  clear();
  size_ = other.size_;
  if (other.spilled()) {
    heap_ = other.heap_;
  } else {
    for (uint32_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
  }
  return *this;
}

EventArgs& EventArgs::operator=(EventArgs&& other) noexcept {
  if (this == &other) return *this;
  clear();
  size_ = other.size_;
  if (other.spilled()) {
    heap_ = std::move(other.heap_);
  } else {
    for (uint32_t i = 0; i < size_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
  }
  other.size_ = 0;
  other.heap_.clear();
  return *this;
}

Value& EventArgs::operator[](ArgKey key) {
  Entry* entries = data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (entries[i].key == key) return entries[i].value;
  }
  if (size_ < kInlineCapacity) {
    inline_[size_].key = key;
    inline_[size_].value = std::monostate{};
    return inline_[size_++].value;
  }
  if (size_ == kInlineCapacity) {
    // Spill: move everything so iteration stays one contiguous scan.
    heap_.reserve(kInlineCapacity * 2);
    for (Entry& entry : inline_) heap_.push_back(std::move(entry));
  }
  heap_.push_back(Entry{key, std::monostate{}});
  ++size_;
  return heap_.back().value;
}

const Value* EventArgs::Find(ArgKey key) const {
  const Entry* entries = data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (entries[i].key == key) return &entries[i].value;
  }
  return nullptr;
}

void EventArgs::clear() {
  if (!spilled()) {
    for (uint32_t i = 0; i < size_; ++i) inline_[i].value = std::monostate{};
  }
  heap_.clear();
  size_ = 0;
}

size_t EventArgs::MemoryBytes() const {
  size_t bytes = heap_.capacity() * sizeof(Entry);
  for (const Entry& entry : *this) {
    if (const auto* s = std::get_if<std::string>(&entry.value)) {
      bytes += s->capacity();
    }
  }
  return bytes;
}

// -------------------------------------------------------- VariableStore

void VariableStore::Set(ArgKey key, Value value) {
  for (auto& [existing, stored] : values_) {
    if (existing == key) {
      stored = std::move(value);
      return;
    }
  }
  values_.emplace_back(key, std::move(value));
}

const Value& VariableStore::Get(ArgKey key) const {
  for (const auto& [existing, stored] : values_) {
    if (existing == key) return stored;
  }
  return kUnset;
}

bool VariableStore::Has(ArgKey key) const {
  for (const auto& [existing, stored] : values_) {
    if (existing == key) return true;
  }
  return false;
}

void VariableStore::Erase(ArgKey key) {
  for (auto it = values_.begin(); it != values_.end(); ++it) {
    if (it->first == key) {
      values_.erase(it);
      return;
    }
  }
}

std::optional<int64_t> VariableStore::GetInt(ArgKey key) const {
  const auto* v = std::get_if<int64_t>(&Get(key));
  return v ? std::optional<int64_t>(*v) : std::nullopt;
}

std::optional<double> VariableStore::GetDouble(ArgKey key) const {
  const auto* v = std::get_if<double>(&Get(key));
  return v ? std::optional<double>(*v) : std::nullopt;
}

std::optional<std::string> VariableStore::GetString(ArgKey key) const {
  const auto* v = std::get_if<std::string>(&Get(key));
  return v ? std::optional<std::string>(*v) : std::nullopt;
}

std::optional<bool> VariableStore::GetBool(ArgKey key) const {
  const auto* v = std::get_if<bool>(&Get(key));
  return v ? std::optional<bool>(*v) : std::nullopt;
}

size_t VariableStore::HeapBytes() const {
  size_t bytes = values_.capacity() * sizeof(std::pair<ArgKey, Value>);
  for (const auto& [key, value] : values_) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      bytes += common::StringHeapBytes(*s);
    }
  }
  return bytes;
}

}  // namespace vids::efsm
