// Typed values, interned argument keys, and variable stores for extended
// finite state machines.
//
// Definition 1 of the paper equips an EFSM with a vector v̄ of state
// variables over domains D, split in §4.2 into local variables (v.l_*, one
// protocol machine) and global variables (v.g_*, shared by all machines of
// a call group — how SDP media parameters reach the RTP machine). A
// VariableStore is one such scope; memory accounting supports the paper's
// §7.3 per-call memory-cost claim.
//
// Argument and variable names are interned once into a process-wide ArgKey
// table, so the per-packet hot path compares 16-bit integers instead of
// hashing strings, and both EventArgs and VariableStore are flat arrays
// with inline capacity — steady-state packet inspection allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vids::efsm {

/// A state-variable or event-argument value.
using Value = std::variant<std::monostate, int64_t, double, std::string, bool>;

/// Readable rendering for traces and alerts.
std::string ToString(const Value& value);

/// An interned identifier for an event-argument or state-variable name.
/// Interning is append-only and process-wide, and thread-safe: ids must
/// agree across the sharded engine's worker threads (a shard's hook events
/// are decoded by the coordinator). Lookup of an already-interned name is
/// lock-free; only the first intern of a new spelling takes a mutex.
/// Equality and lookup on a key are integer operations; `name()` recovers
/// the original spelling.
class ArgKey {
 public:
  /// The default-constructed key is invalid and compares unequal to every
  /// interned key.
  constexpr ArgKey() = default;

  /// Returns the key for `name`, interning it on first use.
  static ArgKey Intern(std::string_view name);

  /// Recovers the spelling of an interned id — the decode side of the
  /// flight recorder's compact records. "<invalid>" for unknown ids.
  static std::string_view NameOfId(uint16_t id);

  std::string_view name() const;
  constexpr uint16_t id() const { return id_; }
  constexpr bool valid() const { return id_ != kInvalidId; }

  friend constexpr bool operator==(ArgKey a, ArgKey b) {
    return a.id_ == b.id_;
  }

 private:
  static constexpr uint16_t kInvalidId = 0xFFFF;
  constexpr explicit ArgKey(uint16_t id) : id_(id) {}
  uint16_t id_ = kInvalidId;
};

/// The event-argument vector x̄: a small flat map keyed by ArgKey. The
/// first kInlineCapacity entries live inline (no heap); larger vectors
/// (SIP's parsed-header events) spill wholesale to a heap vector so
/// iteration stays a single contiguous scan either way. Lookup is a linear
/// integer-compare scan — for the ≤ 20 arguments an event carries that
/// beats any tree or hash by a wide margin.
class EventArgs {
 public:
  struct Entry {
    ArgKey key;
    Value value;
  };
  using const_iterator = const Entry*;

  EventArgs() = default;
  EventArgs(const EventArgs& other);
  EventArgs(EventArgs&& other) noexcept;
  EventArgs& operator=(const EventArgs& other);
  EventArgs& operator=(EventArgs&& other) noexcept;

  /// Returns the value for `key`, inserting a monostate entry if absent.
  Value& operator[](ArgKey key);
  Value& operator[](std::string_view name) {
    return (*this)[ArgKey::Intern(name)];
  }

  /// Positional fast path for writers that fill the same keys in the same
  /// order every time (the packet classifier's reused scratch events): when
  /// `index` already holds `key` — the steady state — this is a single
  /// integer compare; otherwise it falls back to the keyed lookup, so the
  /// result is always identical to operator[](key).
  Value& Slot(size_t index, ArgKey key) {
    if (index < size_) {
      Entry& entry = data()[index];
      if (entry.key == key) return entry.value;
    }
    return (*this)[key];
  }

  /// Returns the entry's value or nullptr. Never allocates.
  const Value* Find(ArgKey key) const;
  const Value* Find(std::string_view name) const {
    return Find(ArgKey::Intern(name));
  }
  bool contains(ArgKey key) const { return Find(key) != nullptr; }
  bool contains(std::string_view name) const { return Find(name) != nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  /// Approximate heap footprint of the argument vector (names are interned
  /// and shared, so only spilled storage and string payloads count).
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kInlineCapacity = 12;

  bool spilled() const { return size_ > kInlineCapacity; }
  const Entry* data() const {
    return spilled() ? heap_.data() : inline_.data();
  }
  Entry* data() { return spilled() ? heap_.data() : inline_.data(); }

  uint32_t size_ = 0;
  std::array<Entry, kInlineCapacity> inline_{};
  std::vector<Entry> heap_;
};

/// One variable scope (local or global). Same flat interned-key layout as
/// EventArgs: a scope holds 1 to 12 variables (TAB-MEM), where a linear scan
/// over 16-bit ids is both the fastest and the smallest representation. Its
/// owner sizes it: a machine instance reserves what its definition's
/// instances have needed (MachineDef::local_slots), a group what its shape's
/// groups have (GroupShape::global_slots).
class VariableStore {
 public:
  void Set(ArgKey key, Value value);
  void Set(std::string_view name, Value value) {
    Set(ArgKey::Intern(name), std::move(value));
  }

  /// Unset variables read as monostate.
  const Value& Get(ArgKey key) const;
  const Value& Get(std::string_view name) const {
    return Get(ArgKey::Intern(name));
  }
  bool Has(ArgKey key) const;
  bool Has(std::string_view name) const { return Has(ArgKey::Intern(name)); }
  void Erase(ArgKey key);
  void Erase(std::string_view name) { Erase(ArgKey::Intern(name)); }
  /// Keeps the slots: a recycled store reuses them.
  void Clear() { values_.clear(); }
  size_t size() const { return values_.size(); }
  /// Slots reserved: the values the store holds before it must grow.
  size_t capacity() const { return values_.capacity(); }
  /// Grows the store to hold `slots` values without growing again.
  void Reserve(size_t slots) {
    if (values_.capacity() < slots) values_.reserve(slots);
  }

  // Typed readers returning nullopt when absent or of another type.
  std::optional<int64_t> GetInt(ArgKey key) const;
  std::optional<int64_t> GetInt(std::string_view name) const {
    return GetInt(ArgKey::Intern(name));
  }
  std::optional<double> GetDouble(ArgKey key) const;
  std::optional<double> GetDouble(std::string_view name) const {
    return GetDouble(ArgKey::Intern(name));
  }
  std::optional<std::string> GetString(ArgKey key) const;
  std::optional<std::string> GetString(std::string_view name) const {
    return GetString(ArgKey::Intern(name));
  }
  std::optional<bool> GetBool(ArgKey key) const;
  std::optional<bool> GetBool(std::string_view name) const {
    return GetBool(ArgKey::Intern(name));
  }

  /// Approximate heap + inline footprint, for the TAB-MEM experiment.
  size_t MemoryBytes() const { return sizeof(*this) + HeapBytes(); }
  /// The reserved slots and the string values' heap, beyond the store
  /// object (what a store inside a group adds to the group's record).
  size_t HeapBytes() const;

  /// The variables in insertion order (traces, memory accounting).
  const std::vector<std::pair<ArgKey, Value>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<ArgKey, Value>> values_;
};

}  // namespace vids::efsm
