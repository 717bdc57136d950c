// Federation smoke: a 2-shard control plane in one page.
//
// Two independent JOSHUA replica groups (2 heads + 1 compute each) split the
// queue space -- shard 0 owns batch*, shard 1 is the catch-all -- behind one
// fed::Router. The walk-through exercises every router path: glob-routed
// submits, the merged jstat-all fan-out, a single-shard head crash that the
// other shard never notices, a submit during that outage, and a cross-shard
// mass delete. Deterministic; the regression workflow diffs the report
// against baselines/fed_smoke.report.json.
//
//   $ ./examples/fed_smoke [out_prefix]     # JOSHUA_ORDERING=allack|token
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fed/router.h"
#include "joshua/config_file.h"
#include "telemetry/scenario_report.h"
#include "util/logging.h"

namespace {

void banner(joshua::Cluster& f, const std::string& msg) {
  std::printf("[%8.3fs] %s\n", f.sim().now().seconds(), msg.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  jutil::Logger::instance().set_level(jutil::LogLevel::kWarn);
  std::string prefix = argc > 1 ? argv[1] : "fed_smoke";

  joshua::ClusterOptions options;
  joshua::apply_env(options, std::getenv);
  options.head_count = 4;
  options.compute_count = 2;
  options.shards.count = 2;
  options.shards.queues = {{"batch*"}, {"*"}};
  options.cal = sim::fast_calibration();
  joshua::Cluster f(std::move(options));
  f.start();
  if (!f.run_until_converged()) {
    std::printf("FATAL: a shard never formed its initial view\n");
    return 1;
  }
  banner(f, "2 shards x 2 heads in service (batch* | catch-all)");
  fed::Router router(f);

  // --- glob-routed submits: ids come from the owning shard's block ---------
  int accepted = 0;
  pbs::JobId batch_id = 0, debug_id = 0;
  auto submit = [&](const std::string& queue, pbs::JobId& id_out) {
    pbs::JobSpec spec;
    spec.name = queue + "-job";
    spec.queue = queue;
    spec.run_time = sim::hours(1);
    router.jsub(spec, [&](std::optional<pbs::SubmitResponse> r) {
      if (r && r->status == pbs::Status::kOk) {
        ++accepted;
        id_out = r->job_id;
      }
    });
  };
  submit("batch", batch_id);
  submit("batch", batch_id);
  submit("debug", debug_id);
  f.sim().run_for(sim::seconds(5));
  std::printf("[%8.3fs] %d submits accepted: batch -> job %llu (shard %u), "
              "debug -> job %llu (shard %u)\n",
              f.sim().now().seconds(), accepted,
              static_cast<unsigned long long>(batch_id),
              *router.layout().owner_of(batch_id),
              static_cast<unsigned long long>(debug_id),
              *router.layout().owner_of(debug_id));

  // --- jstat-all: one merged listing over both ordering groups --------------
  size_t listed = 0;
  bool sorted = true;
  router.jstat(pbs::StatRequest{}, [&](std::optional<pbs::StatResponse> r) {
    if (!r || r->status != pbs::Status::kOk) return;
    listed = r->jobs.size();
    for (size_t i = 1; i < r->jobs.size(); ++i)
      sorted &= r->jobs[i - 1].id < r->jobs[i].id;
  });
  f.sim().run_for(sim::seconds(2));
  std::printf("[%8.3fs] jstat -all merged %zu jobs from 2 shards (%s)\n",
              f.sim().now().seconds(), listed,
              sorted ? "sorted by id" : "OUT OF ORDER");

  // --- shard-0 head crash: shard 1 never sees it ----------------------------
  f.net().crash_host(f.head_hosts()[0]);
  banner(f, ">>> shard 0 lost a head (its partner takes over alone)");
  f.run_until_converged(sim::seconds(60));
  bool outage_ok = false;
  pbs::JobSpec during;
  during.name = "during-outage";
  during.queue = "batch";
  during.run_time = sim::hours(1);
  router.jsub(during, [&](std::optional<pbs::SubmitResponse> r) {
    outage_ok = r && r->status == pbs::Status::kOk;
  });
  f.sim().run_for(sim::seconds(10));
  std::printf("[%8.3fs] batch submit during the outage: %s "
              "(router failovers: %llu)\n",
              f.sim().now().seconds(), outage_ok ? "accepted" : "FAILED",
              static_cast<unsigned long long>(router.failovers()));

  // --- cross-shard mass delete ---------------------------------------------
  uint64_t deleted = 0;
  router.jdel_all([&](std::optional<uint64_t> n) { deleted = n.value_or(0); });
  f.sim().run_for(sim::seconds(5));
  std::printf("[%8.3fs] jdel -all removed %llu jobs across both shards\n",
              f.sim().now().seconds(),
              static_cast<unsigned long long>(deleted));

  const fed::Router::Telemetry& rs = router.stats();
  bool pass = accepted == 3 && listed == 3 && sorted && outage_ok &&
              deleted == 4 && router.layout().owner_of(batch_id) == 0u &&
              router.layout().owner_of(debug_id) == 1u &&
              rs.fanouts.count() >= 2;

  telemetry::ScenarioReport report;
  report.set_meta("scenario", "fed_smoke");
  report.set("shards", 2);
  report.set("jobs_accepted", accepted);
  report.set("jstat_all_jobs", static_cast<double>(listed));
  report.set("jstat_all_sorted", sorted ? 1 : 0);
  report.set("outage_submission_ok", outage_ok ? 1 : 0);
  report.set("mass_deleted", static_cast<double>(deleted));
  report.set("router.routed", static_cast<double>(rs.routed.count()));
  report.set("router.fanouts", static_cast<double>(rs.fanouts.count()));
  report.set("router.fanout_reads",
             static_cast<double>(rs.fanout_reads.count()));
  report.set("router.rejects", static_cast<double>(rs.rejects.count()));
  report.set("smoke_passed", pass ? 1 : 0);
  report.note_metrics(f.sim().telemetry().metrics());
  std::string report_path = prefix + ".report.json";
  if (!report.write_file(report_path)) {
    std::printf("FAILED to write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n%s\n", report_path.c_str(),
              pass ? "SMOKE PASSED" : "SMOKE FAILED");
  return pass ? 0 : 1;
}
