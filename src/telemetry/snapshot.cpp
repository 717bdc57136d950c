#include "telemetry/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/json.h"

namespace telemetry {

std::string metrics_json(const Registry& registry) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : registry.counters()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, c.name);
    out += ':';
    append_json_number(out, static_cast<double>(c.value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : registry.gauges()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, g.name);
    out += ':';
    append_json_number(out, static_cast<double>(g.value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : registry.histograms()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, h.name);
    out += ":{\"count\":";
    append_json_number(out, static_cast<double>(h.data.count));
    out += ",\"mean\":";
    append_json_number(out, h.data.mean());
    out += ",\"p50\":";
    append_json_number(out, h.data.percentile(50));
    out += ",\"p95\":";
    append_json_number(out, h.data.percentile(95));
    out += ",\"p99\":";
    append_json_number(out, h.data.percentile(99));
    out += ",\"min\":";
    append_json_number(out, static_cast<double>(h.data.min));
    out += ",\"max\":";
    append_json_number(out, static_cast<double>(h.data.max));
    out += '}';
  }
  out += "}}";
  return out;
}

std::string render_metrics_table(const Registry& registry) {
  size_t width = 24;
  for (const auto& c : registry.counters()) width = std::max(width, c.name.size());
  for (const auto& g : registry.gauges()) width = std::max(width, g.name.size());
  for (const auto& h : registry.histograms())
    width = std::max(width, h.name.size());

  std::string out;
  char line[256];
  auto row = [&](const char* fmt, auto... args) {
    int n = std::snprintf(line, sizeof line, fmt, args...);
    out.append(line, static_cast<size_t>(std::min<int>(n, sizeof line - 1)));
  };
  if (!registry.counters().empty() || !registry.gauges().empty()) {
    row("%-*s %14s\n", static_cast<int>(width), "metric", "value");
    for (const auto& c : registry.counters())
      row("%-*s %14llu\n", static_cast<int>(width), c.name.c_str(),
          static_cast<unsigned long long>(c.value));
    for (const auto& g : registry.gauges())
      row("%-*s %14lld\n", static_cast<int>(width), g.name.c_str(),
          static_cast<long long>(g.value));
  }
  if (!registry.histograms().empty()) {
    row("%-*s %10s %10s %10s %10s %10s\n", static_cast<int>(width), "histogram",
        "count", "mean", "p50", "p95", "max");
    for (const auto& h : registry.histograms())
      row("%-*s %10llu %10.1f %10.1f %10.1f %10lld\n", static_cast<int>(width),
          h.name.c_str(), static_cast<unsigned long long>(h.data.count),
          h.data.mean(), h.data.percentile(50), h.data.percentile(95),
          static_cast<long long>(h.data.max));
  }
  return out;
}

}  // namespace telemetry
