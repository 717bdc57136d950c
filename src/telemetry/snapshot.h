// Metrics snapshot dumpers: one JSON document and one ASCII table over
// everything a Registry holds. Histograms export summary statistics
// (count/mean/p50/p95/p99/min/max), not raw buckets.
#pragma once

#include <string>

#include "telemetry/metrics.h"

namespace telemetry {

std::string metrics_json(const Registry& registry);

/// Human-readable table for example/bench stdout.
std::string render_metrics_table(const Registry& registry);

}  // namespace telemetry
