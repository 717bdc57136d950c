// The benchmark's own spans, kept in memory and written once as Chrome
// trace-event JSON (open the file in https://ui.perfetto.dev).
//
// Two clocks, two tracks: host-clock spans (set-up, each run_until slice,
// each timed phase, each layer-rig call) go on process 1, and one span per
// client command, from issue to reply on the simulated clock, on process 2.
// Every span of one command carries that command's id.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace jbench {

class SpanLog {
 public:
  enum class Clock : uint8_t { kHost = 1, kSim = 2 };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Host microseconds since this log was created.
  double host_now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// `name` must be a string literal (spans keep the pointer).
  void add(Clock clock, const char* name, int track, uint64_t id,
           double start_us, double dur_us) {
    spans_.push_back({clock, name, track, id, start_us, dur_us});
  }

  size_t size() const { return spans_.size(); }

  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    Clock clock;
    const char* name;
    int track;
    uint64_t id;
    double start_us;
    double dur_us;
  };
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII host-clock span; a null log makes it a no-op.
class HostSpan {
 public:
  HostSpan(SpanLog* log, const char* name, int track, uint64_t id = 0)
      : log_(log),
        name_(name),
        track_(track),
        id_(id),
        start_(log != nullptr ? log->host_now_us() : 0) {}
  ~HostSpan() {
    if (log_ != nullptr)
      log_->add(SpanLog::Clock::kHost, name_, track_, id_, start_,
                log_->host_now_us() - start_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  int track_;
  uint64_t id_;
  double start_;
};

}  // namespace jbench
