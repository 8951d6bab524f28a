#include "obs/metrics.h"

#include <sstream>

namespace vids::obs {

Counter& NullCounter() {
  static Counter counter;
  return counter;
}
Gauge& NullGauge() {
  static Gauge gauge;
  return gauge;
}
Histogram& NullHistogram() {
  static Histogram histogram;
  return histogram;
}

int64_t Histogram::BucketBound(size_t b) {
  if (b == 0) return 1;  // bucket 0: v <= 0
  if (b >= 63) return INT64_MAX;
  return int64_t{1} << b;
}

int64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const auto rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      const int64_t bound = BucketBound(b);
      return bound > max_ ? max_ : (bound < min_ ? min_ : bound);
    }
  }
  return max_;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, counter] : other.counters_) {
    GetCounter(name).Inc(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    GetGauge(name).Add(gauge.value());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    GetHistogram(name).MergeFrom(histogram);
  }
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other,
                                std::string_view prefix) {
  std::string name;  // one scratch key reused across the whole fold
  const auto prefixed = [&](std::string_view suffix) -> const std::string& {
    name.assign(prefix);
    name.append(suffix);
    return name;
  };
  for (const auto& [suffix, counter] : other.counters_) {
    GetCounter(prefixed(suffix)).Inc(counter.value());
  }
  for (const auto& [suffix, gauge] : other.gauges_) {
    GetGauge(prefixed(suffix)).Add(gauge.value());
  }
  for (const auto& [suffix, histogram] : other.histograms_) {
    GetHistogram(prefixed(suffix)).MergeFrom(histogram);
  }
}

// Get* descend the tree once: lower_bound both answers the lookup and, on a
// miss, hints the insert at the right position. The per-shard merge path
// registers dozens of prefixed names per snapshot, so the old find+emplace
// double walk (which also constructed a throwaway 500-byte Histogram
// argument before knowing whether the key existed) paid twice per metric.
// std::map storage keeps every previously returned reference stable across
// any number of later registrations.
Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const auto it = counters_.lower_bound(name);
  if (it != counters_.end() && it->first == name) return it->second;
  return counters_.try_emplace(it, std::string(name))->second;
}
Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  const auto it = gauges_.lower_bound(name);
  if (it != gauges_.end() && it->first == name) return it->second;
  return gauges_.try_emplace(it, std::string(name))->second;
}
Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  const auto it = histograms_.lower_bound(name);
  if (it != histograms_.end() && it->first == name) return it->second;
  return histograms_.try_emplace(it, std::string(name))->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}
const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}
const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::VisitCounters(
    const std::function<void(std::string_view, const Counter&)>& fn) const {
  for (const auto& [name, counter] : counters_) fn(name, counter);
}
void MetricsRegistry::VisitGauges(
    const std::function<void(std::string_view, const Gauge&)>& fn) const {
  for (const auto& [name, gauge] : gauges_) fn(name, gauge);
}
void MetricsRegistry::VisitHistograms(
    const std::function<void(std::string_view, const Histogram&)>& fn) const {
  for (const auto& [name, histogram] : histograms_) fn(name, histogram);
}

std::string MetricsRegistry::ToJson(bool include_histograms) const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << counter.value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << gauge.value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";
  if (include_histograms) {
    out << ",\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
      out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
          << h.count() << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
          << ", \"max\": " << h.max() << ", \"p50\": " << h.Quantile(0.5)
          << ", \"p95\": " << h.Quantile(0.95)
          << ", \"p99\": " << h.Quantile(0.99) << "}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "}";
  }
  out << "\n}\n";
  return out.str();
}

namespace {
std::string PromName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.' || c == '-' || c == ' ') c = '_';
  }
  return out;
}

/// Splits a merged-snapshot name into its Prometheus family name and label
/// set: "shard.3.lat.e2e" → family "lat_e2e", labels `shard="3"`. Names
/// without the shard prefix (including "sharded.*") pass through
/// unlabeled.
struct PromSeries {
  std::string name;
  std::string labels;  // without braces; empty = no labels
};
PromSeries PromSplit(std::string_view name) {
  // "shard.<digits>.<rest>" with a non-empty rest.
  constexpr std::string_view kPrefix = "shard.";
  if (name.substr(0, kPrefix.size()) == kPrefix) {
    size_t end = kPrefix.size();
    while (end < name.size() && name[end] >= '0' && name[end] <= '9') ++end;
    if (end > kPrefix.size() && end + 1 < name.size() && name[end] == '.') {
      const std::string_view digits =
          name.substr(kPrefix.size(), end - kPrefix.size());
      return {PromName(name.substr(end + 1)),
              "shard=\"" + std::string(digits) + "\""};
    }
  }
  return {PromName(name), ""};
}
}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::ostringstream out;
  // With shard labels, several registry entries can map onto one metric
  // family; the TYPE header must appear once per family, not per series.
  std::map<std::string, bool> typed;
  const auto type_line = [&](const std::string& family, const char* type) {
    if (typed.emplace(family, true).second) {
      out << "# TYPE " << family << " " << type << "\n";
    }
  };
  const auto series = [](const PromSeries& s,
                         std::string_view extra = {}) -> std::string {
    if (s.labels.empty() && extra.empty()) return s.name;
    std::string line = s.name + "{" + s.labels;
    if (!s.labels.empty() && !extra.empty()) line += ",";
    line.append(extra);
    line += "}";
    return line;
  };
  for (const auto& [name, counter] : counters_) {
    const PromSeries s = PromSplit(name);
    type_line(s.name, "counter");
    out << series(s) << " " << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const PromSeries s = PromSplit(name);
    type_line(s.name, "gauge");
    out << series(s) << " " << gauge.value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const PromSeries s = PromSplit(name);
    type_line(s.name, "histogram");
    const PromSeries bucket{s.name + "_bucket", s.labels};
    uint64_t cumulative = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets()[b] == 0) continue;
      cumulative += h.buckets()[b];
      out << series(bucket, "le=\"" + std::to_string(Histogram::BucketBound(b)) +
                                "\"")
          << " " << cumulative << "\n";
    }
    out << series(bucket, "le=\"+Inf\"") << " " << h.count() << "\n"
        << series({s.name + "_sum", s.labels}) << " " << h.sum() << "\n"
        << series({s.name + "_count", s.labels}) << " " << h.count() << "\n";
  }
  return out.str();
}

}  // namespace vids::obs
