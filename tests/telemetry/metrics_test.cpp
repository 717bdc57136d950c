#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include "telemetry/scenario_report.h"
#include "telemetry/snapshot.h"
#include "telemetry/json_mini.h"
#include "util/stats.h"

namespace telemetry {
namespace {

TEST(Registry, CounterRoundTrip) {
  Registry reg;
  Counter a = reg.counter("a");
  a.add();
  a.add(41);
  EXPECT_EQ(a.value(), 42u);
  // Same name -> same cell.
  Counter a2 = reg.counter("a");
  a2.add(8);
  EXPECT_EQ(a.value(), 50u);
  ASSERT_NE(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_counter("a")->value, 50u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
}

TEST(Registry, DefaultHandlesAreSafeNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add(5);
  g.set(7);
  h.record(9);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.data(), nullptr);
}

TEST(Registry, CounterCountsWhatItAdded) {
  Registry reg;
  Counter a = reg.counter("a");
  Counter a2 = reg.counter("a");
  Counter local;  // no registry name
  a.add(3);
  a2.add(4);
  local.add(5);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a2.count(), 4u);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(local.count(), 5u);
  EXPECT_EQ(local.value(), 0u);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry reg;
  Gauge g = reg.gauge("depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Registry, HandlesSurviveRegistryGrowth) {
  Registry reg;
  Counter first = reg.counter("first");
  first.add(1);
  // Register enough metrics to force internal growth; the first handle's
  // cell must not move.
  for (int i = 0; i < 200; ++i)
    reg.counter("c" + std::to_string(i)).add(1);
  first.add(1);
  EXPECT_EQ(reg.find_counter("first")->value, 2u);
}

TEST(Histogram, ExactStatsAndBuckets) {
  HistogramData h;
  for (int64_t v : {1, 2, 3, 100, 1000}) h.record(v);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 1000);
  EXPECT_DOUBLE_EQ(h.mean(), (1 + 2 + 3 + 100 + 1000) / 5.0);
}

TEST(Histogram, EmptyIsZero) {
  HistogramData h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, PercentilesAreClampedToObservedRange) {
  HistogramData h;
  for (int i = 0; i < 1000; ++i) h.record(500);
  EXPECT_GE(h.percentile(0), 500.0 - 1e-9);
  EXPECT_LE(h.percentile(100), 500.0 + 1e-9);
  EXPECT_GE(h.percentile(50), h.min);
  EXPECT_LE(h.percentile(50), h.max);
}

TEST(Histogram, PercentileOrderingOnSpread) {
  HistogramData h;
  for (int i = 1; i <= 10000; ++i) h.record(i);
  double p50 = h.percentile(50);
  double p95 = h.percentile(95);
  double p99 = h.percentile(99);
  EXPECT_LT(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucket interpolation: p50 of uniform 1..10000 lands within the
  // right power-of-two bucket of the true median.
  EXPECT_GT(p50, 2048.0);
  EXPECT_LT(p50, 8192.0);
}

TEST(Histogram, NonPositiveSamplesLandInBucketZero) {
  HistogramData h;
  h.record(0);
  h.record(-5);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.min, -5);
  EXPECT_EQ(h.max, 0);
}

TEST(Snapshot, MetricsJsonParsesAndCarriesValues) {
  Registry reg;
  reg.counter("net.frames").add(7);
  reg.gauge("queue.depth").set(-3);
  Histogram h = reg.histogram("lat_us");
  for (int i = 1; i <= 100; ++i) h.record(i);

  auto doc = json_mini::parse(metrics_json(reg));
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->at("counters")->at("net.frames")->number, 7.0);
  EXPECT_DOUBLE_EQ(doc->at("gauges")->at("queue.depth")->number, -3.0);
  const auto& lat = doc->at("histograms")->at("lat_us");
  EXPECT_DOUBLE_EQ(lat->at("count")->number, 100.0);
  EXPECT_DOUBLE_EQ(lat->at("min")->number, 1.0);
  EXPECT_DOUBLE_EQ(lat->at("max")->number, 100.0);
}

TEST(Snapshot, TableMentionsEveryMetric) {
  Registry reg;
  reg.counter("alpha.count").add(1);
  reg.histogram("beta.lat_us").record(10);
  std::string table = render_metrics_table(reg);
  EXPECT_NE(table.find("alpha.count"), std::string::npos);
  EXPECT_NE(table.find("beta.lat_us"), std::string::npos);
}

TEST(ScenarioReport, FlatJsonRoundTrip) {
  ScenarioReport report;
  report.set("alpha", 1.5);
  report.set("beta", 42);
  jutil::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  report.note_samples("lat_ms", s);

  EXPECT_TRUE(report.has("alpha"));
  EXPECT_FALSE(report.has("gamma"));
  EXPECT_DOUBLE_EQ(report.get("beta"), 42.0);

  auto doc = json_mini::parse(report.json());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->at("alpha")->number, 1.5);
  EXPECT_DOUBLE_EQ(doc->at("lat_ms.count")->number, 100.0);
  EXPECT_DOUBLE_EQ(doc->at("lat_ms.max")->number, 100.0);
}

TEST(ScenarioReport, NoteMetricsFoldsWholeRegistry) {
  Registry reg;
  reg.counter("x.total").add(3);
  reg.histogram("y.lat_us").record(8);
  ScenarioReport report;
  report.note_metrics(reg);
  EXPECT_DOUBLE_EQ(report.get("x.total"), 3.0);
  EXPECT_DOUBLE_EQ(report.get("y.lat_us.count"), 1.0);
  EXPECT_DOUBLE_EQ(report.get("y.lat_us.max"), 8.0);
}

TEST(ScenarioReport, JsonEscapesAwkwardNames) {
  ScenarioReport report;
  report.set("weird\"name\\with\nstuff", 1);
  auto doc = json_mini::parse(report.json());
  EXPECT_DOUBLE_EQ(doc->at("weird\"name\\with\nstuff")->number, 1.0);
}

}  // namespace
}  // namespace telemetry
