// End-to-end telemetry validation: drive the failover_demo scenario (jobs
// submitted, a head crashed, a survivor serving, the head rejoining with a
// replay state transfer) through the Cluster harness, then validate the
// run's exports:
//   * the Chrome trace JSON is well-formed, per-track timestamps are
//     monotone, and every head node produced at least one event;
//   * the ScenarioReport JSON carries a populated joshua
//     intercept->reply latency histogram and a nonzero replay counter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "joshua/cluster.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/json_mini.h"
#include "telemetry/scenario_report.h"
#include "telemetry/snapshot.h"
#include "testutil.h"

namespace {

/// Runs the failover scenario once and shares the cluster across tests.
class TelemetryExportTest : public ::testing::Test {
 protected:
  static joshua::Cluster* cluster_;

  static void SetUpTestSuite() {
    joshua::ClusterOptions options = testutil::env_options();
    options.head_count = 3;
    options.compute_count = 2;
    cluster_ = new joshua::Cluster(options);
    joshua::Cluster& cluster = *cluster_;
    cluster.start();
    ASSERT_TRUE(cluster.run_until_converged());

    joshua::Client& client = cluster.make_jclient();
    int accepted = 0;
    for (int i = 0; i < 4; ++i) {
      pbs::JobSpec spec;
      spec.name = "workload-" + std::to_string(i);
      spec.run_time = sim::seconds(10);
      client.jsub(spec, [&](std::optional<pbs::SubmitResponse> r) {
        if (r && r->status == pbs::Status::kOk) ++accepted;
      });
    }
    cluster.sim().run_for(sim::seconds(5));
    ASSERT_EQ(accepted, 4);

    // Crash the coordinator mid-service, keep submitting, then repair it.
    cluster.net().crash_host(cluster.head_hosts()[0]);
    ASSERT_TRUE(cluster.run_until_converged());
    bool ok = false;
    pbs::JobSpec extra;
    extra.name = "during-outage";
    extra.run_time = sim::seconds(10);
    client.jsub(extra, [&](std::optional<pbs::SubmitResponse> r) {
      ok = r && r->status == pbs::Status::kOk;
    });
    // The client's per-head timeout is 8 s; give it time to rotate off the
    // dead head.
    cluster.sim().run_for(sim::seconds(20));
    ASSERT_TRUE(ok);

    cluster.net().restart_host(cluster.head_hosts()[0]);
    cluster.joshua_server(0).start();
    ASSERT_TRUE(cluster.run_until_converged(sim::seconds(60)));
    cluster.sim().run_for(sim::seconds(90));
  }

  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  static std::vector<std::string> host_names() {
    std::vector<std::string> names;
    for (sim::HostId h = 0; h < cluster_->net().host_count(); ++h)
      names.push_back(cluster_->net().host(h).name());
    return names;
  }
};

joshua::Cluster* TelemetryExportTest::cluster_ = nullptr;

TEST_F(TelemetryExportTest, ChromeTraceIsValid) {
  joshua::Cluster& cluster = *cluster_;
  telemetry::TraceBuffer& trace = cluster.sim().telemetry().trace();
  ASSERT_GT(trace.size(), 0u);

  auto doc = json_mini::parse(
      telemetry::chrome_trace_json(trace, host_names()));
  ASSERT_TRUE(doc->is_object());
  const auto& events = doc->at("traceEvents");
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array.size(), 0u);

  std::map<int64_t, int64_t> last_ts_by_track;
  std::map<int64_t, size_t> events_by_track;
  for (const auto& e : events->array) {
    ASSERT_TRUE(e->is_object());
    const std::string& ph = e->at("ph")->string;
    if (ph == "M") continue;  // metadata carries no timestamp ordering
    auto tid = static_cast<int64_t>(e->at("tid")->number);
    auto ts = static_cast<int64_t>(e->at("ts")->number);
    auto it = last_ts_by_track.find(tid);
    if (it != last_ts_by_track.end()) {
      EXPECT_GE(ts, it->second) << "track " << tid << " went backwards";
    }
    last_ts_by_track[tid] = ts;
    ++events_by_track[tid];
  }
  // Every head node must have produced at least one event (all three were
  // in service at some point during the scenario).
  for (sim::HostId head : cluster.head_hosts()) {
    EXPECT_GE(events_by_track[static_cast<int64_t>(head)], 1u)
        << "head host " << head << " produced no trace events";
  }
}

TEST_F(TelemetryExportTest, ChromeTraceFileRoundTrip) {
  joshua::Cluster& cluster = *cluster_;
  const std::string path = "export_test.trace.json";
  ASSERT_TRUE(telemetry::write_chrome_trace_file(
      path, cluster.sim().telemetry().trace(), host_names()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = json_mini::parse(buf.str());
  EXPECT_TRUE(doc->is_object());
  EXPECT_GT(doc->at("traceEvents")->array.size(), 0u);
  std::remove(path.c_str());
}

TEST_F(TelemetryExportTest, ScenarioReportCarriesJoshuaLatencies) {
  joshua::Cluster& cluster = *cluster_;
  telemetry::ScenarioReport report;
  report.set("demo_passed", 1);
  report.note_metrics(cluster.sim().telemetry().metrics());

  // The paper's headline metric: client command intercept -> ordered
  // execution -> relayed reply, as a populated latency histogram.
  EXPECT_GT(report.get("joshua.intercept_to_reply_us.count"), 0.0);
  EXPECT_GT(report.get("joshua.intercept_to_reply_us.mean"), 0.0);
  EXPECT_GE(report.get("joshua.intercept_to_reply_us.p95"),
            report.get("joshua.intercept_to_reply_us.p50"));
  // The rejoin replayed the command log.
  EXPECT_GT(report.get("joshua.replays_applied"), 0.0);
  // And nothing diverged while doing so.
  EXPECT_EQ(report.get("joshua.replay_divergence.head0"), 0.0);
  // The other layers observed the same run.
  EXPECT_GT(report.get("gcs.views_installed"), 0.0);
  EXPECT_GT(report.get("gcs.order_latency_us.count"), 0.0);
  EXPECT_GT(report.get("net.frames_sent"), 0.0);
  EXPECT_GT(report.get("pbs.jobs_completed"), 0.0);
  EXPECT_GT(report.get("joshua.mutex_grants"), 0.0);

  // Round-trip through a file, as CI consumes it.
  const std::string path = "export_test.report.json";
  ASSERT_TRUE(report.write_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = json_mini::parse(buf.str());
  ASSERT_TRUE(doc->is_object());
  EXPECT_GT(doc->at("joshua.intercept_to_reply_us.count")->number, 0.0);
  EXPECT_DOUBLE_EQ(doc->at("demo_passed")->number, 1.0);
  std::remove(path.c_str());
}

TEST(ScenarioReportMeta, MetaAndTraceAccountingExport) {
  telemetry::ScenarioReport report;
  report.set_meta("scenario", "unit");
  report.set_meta("seed", "17");
  report.set("x", 2.0);

  telemetry::TraceBuffer trace;
  trace.set_capacity(4);
  uint16_t cat_a = trace.intern("gcs.view");
  uint16_t cat_b = trace.intern("joshua.command");
  for (int64_t i = 0; i < 6; ++i) trace.instant(i, 0, cat_a);
  trace.instant(6, 0, cat_b);
  report.note_trace(trace);

  EXPECT_DOUBLE_EQ(report.get("telemetry.trace.recorded"), 7.0);
  EXPECT_DOUBLE_EQ(report.get("telemetry.trace.dropped_records"), 3.0);
  // Only categories that actually lost records get a breakdown entry.
  EXPECT_DOUBLE_EQ(report.get("telemetry.trace.dropped_records.gcs.view"),
                   3.0);
  EXPECT_FALSE(report.has("telemetry.trace.dropped_records.joshua.command"));

  // Meta keys serialize as JSON strings ahead of the numbers and parse back.
  std::string json = report.json();
  EXPECT_LT(json.find("\"meta.scenario\": \"unit\""), json.find("\"x\""));
  auto doc = json_mini::parse(json);
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->at("meta.seed")->string, "17");
  EXPECT_DOUBLE_EQ(doc->at("telemetry.trace.dropped_records")->number, 3.0);
}

TEST_F(TelemetryExportTest, MetricsSnapshotJsonIsWellFormed) {
  joshua::Cluster& cluster = *cluster_;
  auto doc = json_mini::parse(
      telemetry::metrics_json(cluster.sim().telemetry().metrics()));
  ASSERT_TRUE(doc->is_object());
  EXPECT_GT(doc->at("counters")->at("net.frames_sent")->number, 0.0);
  EXPECT_TRUE(doc->at("histograms")->has("joshua.intercept_to_reply_us"));
}

TEST_F(TelemetryExportTest, InstrumentationDoesNotPerturbTheRun) {
  // Determinism guard: a fresh run of the same seed with tracing disabled
  // must produce the identical event count -- telemetry is observation
  // only. (Counters still update; only the trace ring is switched off.)
  auto run_events = [](bool traced) {
    joshua::ClusterOptions options = testutil::env_options();
    options.head_count = 3;
    options.compute_count = 2;
    joshua::Cluster cluster(options);
    cluster.sim().telemetry().trace().set_enabled(traced);
    cluster.start();
    EXPECT_TRUE(cluster.run_until_converged());
    joshua::Client& client = cluster.make_jclient();
    pbs::JobSpec spec;
    spec.name = "probe";
    spec.run_time = sim::seconds(5);
    client.jsub(spec, [](std::optional<pbs::SubmitResponse>) {});
    cluster.sim().run_for(sim::seconds(30));
    return cluster.sim().events_executed();
  };
  EXPECT_EQ(run_events(true), run_events(false));
}

}  // namespace
