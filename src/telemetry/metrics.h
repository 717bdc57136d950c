// Unified metrics registry: named counters, gauges, and fixed-cost
// log2-bucketed histograms.
//
// Metric ids are interned at registration time (startup); the handles a
// component keeps are raw pointers into stable storage, so the steady-state
// update path -- Counter::add, Gauge::set, Histogram::record -- performs
// zero heap allocations (enforced by bench/bench_telemetry.cpp, matching
// the event-core's zero-alloc discipline).
//
// The registry aggregates across every process in one simulation: a
// counter named "gcs.data_sent" sums over all group members, and each
// member's handle keeps that member's share in count(). Per-host timelines
// live in the structured trace (telemetry/trace.h).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

namespace telemetry {

class Registry;

/// Fixed-size histogram over non-negative integer samples (microseconds,
/// bytes, counts). Bucket 0 holds samples <= 0; bucket i >= 1 holds
/// [2^(i-1), 2^i). Exact count/sum/min/max; percentiles are log-linear
/// interpolations within a bucket, which is plenty for latency reporting.
struct HistogramData {
  std::array<uint64_t, 64> buckets{};
  uint64_t count = 0;
  double sum = 0.0;
  int64_t min = 0;
  int64_t max = 0;

  void record(int64_t v) {
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    ++count;
    sum += static_cast<double>(v);
    uint64_t u = v <= 0 ? 0 : static_cast<uint64_t>(v);
    unsigned idx = u == 0 ? 0u : std::bit_width(u);
    if (idx > 63) idx = 63;
    ++buckets[idx];
  }

  bool empty() const { return count == 0; }
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Approximate percentile, p in [0, 100]; 0 on an empty histogram.
  double percentile(double p) const;
};

/// Monotonically increasing counter: value() reads the shared registry
/// cell, count() what this handle alone added. A default-constructed
/// handle feeds no cell but still counts.
class Counter {
 public:
  Counter() = default;
  void add(uint64_t d = 1) {
    count_ += d;
    if (cell_ != nullptr) *cell_ += d;
  }
  uint64_t value() const { return cell_ == nullptr ? 0 : *cell_; }
  uint64_t count() const { return count_; }

 private:
  friend class Registry;
  explicit Counter(uint64_t* cell) : cell_(cell) {}
  uint64_t* cell_ = nullptr;
  uint64_t count_ = 0;
};

/// Last-value gauge (signed).
class Gauge {
 public:
  Gauge() = default;
  void set(int64_t v) {
    if (cell_ != nullptr) *cell_ = v;
  }
  void add(int64_t d) {
    if (cell_ != nullptr) *cell_ += d;
  }
  int64_t value() const { return cell_ == nullptr ? 0 : *cell_; }

 private:
  friend class Registry;
  explicit Gauge(int64_t* cell) : cell_(cell) {}
  int64_t* cell_ = nullptr;
};

/// Handle onto a registered HistogramData.
class Histogram {
 public:
  Histogram() = default;
  void record(int64_t v) {
    if (data_ != nullptr) data_->record(v);
  }
  const HistogramData* data() const { return data_; }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

class Registry {
 public:
  /// Registering the same name twice returns a handle onto the same cell.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  // -- exporter access -------------------------------------------------------

  struct CounterCell {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeCell {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramCell {
    std::string name;
    HistogramData data;
  };

  const std::deque<CounterCell>& counters() const { return counters_; }
  const std::deque<GaugeCell>& gauges() const { return gauges_; }
  const std::deque<HistogramCell>& histograms() const { return histograms_; }

  /// Lookup for tests/exporters; nullptr when never registered.
  const CounterCell* find_counter(std::string_view name) const;
  const HistogramCell* find_histogram(std::string_view name) const;

 private:
  // Deques give the stable cell addresses the handles rely on.
  std::deque<CounterCell> counters_;
  std::deque<GaugeCell> gauges_;
  std::deque<HistogramCell> histograms_;
  std::map<std::string, size_t, std::less<>> counter_ix_;
  std::map<std::string, size_t, std::less<>> gauge_ix_;
  std::map<std::string, size_t, std::less<>> histogram_ix_;
};

}  // namespace telemetry
