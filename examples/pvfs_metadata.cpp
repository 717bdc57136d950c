// The paper's generality claim in action: the SAME symmetric active/active
// machinery (group communication + interceptor + state transfer) wrapped
// around a PVFS-style metadata server instead of the batch system.
//
//   $ ./examples/pvfs_metadata [out_prefix]
//
// Writes <out_prefix>.report.json (ScenarioReport with the pvfs.* and rsm.*
// metrics; CI gates it with tools/report_diff against
// baselines/pvfs_metadata.report.json).
#include <cstdio>
#include <memory>
#include <string>

#include "pvfs/metadata.h"
#include "rsm/replicated_service.h"
#include "sim/calibration.h"
#include "sim/failure.h"
#include "telemetry/scenario_report.h"

int main(int argc, char** argv) {
  std::string prefix = argc > 1 ? argv[1] : "pvfs_metadata";
  sim::Simulation simulation(1);
  sim::Network net(simulation, sim::paper_testbed().network);

  std::vector<sim::HostId> hosts;
  for (int i = 0; i < 3; ++i)
    hosts.push_back(net.add_host("md" + std::to_string(i)).id());
  sim::HostId login = net.add_host("login").id();

  std::vector<std::unique_ptr<pvfs::MetadataServer>> services;
  std::vector<std::unique_ptr<rsm::ReplicaNode>> replicas;
  for (int i = 0; i < 3; ++i) {
    services.push_back(std::make_unique<pvfs::MetadataServer>());
    services.back()->instrument(simulation.telemetry().metrics());
    rsm::ReplicaConfig cfg;
    cfg.group = gcs::group_config_from(sim::paper_testbed());
    cfg.group.port = 7100;
    cfg.group.peers = hosts;
    replicas.push_back(std::make_unique<rsm::ReplicaNode>(
        net, hosts[static_cast<size_t>(i)], cfg, services.back().get()));
    replicas.back()->start();
  }
  rsm::ReplicaClient::Config ccfg;
  for (sim::HostId h : hosts) ccfg.replicas.push_back({h, 19000});
  rsm::ReplicaClient client(net, login, 20000, ccfg);

  auto settle = [&](auto pred) {
    sim::Time limit = simulation.now() + sim::seconds(60);
    while (simulation.now() < limit && !pred())
      simulation.run_for(sim::msec(20));
  };
  settle([&] {
    for (auto& r : replicas)
      if (!r->in_service() || r->group().view().size() != 3) return false;
    return true;
  });
  std::printf("== 3 active/active PVFS metadata servers in service ==\n");

  auto run_op = [&](pvfs::MdRequest req, const char* what) {
    std::optional<pvfs::MdResponse> out;
    client.request(net::encode(req), [&](std::optional<sim::Payload> r) {
      if (r) out = net::decode<pvfs::MdResponse>(*r);
    });
    settle([&] { return out.has_value(); });
    std::printf("[%7.3fs] %-28s -> %s (handle %llu)\n",
                simulation.now().seconds(), what,
                out ? std::string(pvfs::to_string(out->status)).c_str()
                    : "TIMEOUT",
                out ? static_cast<unsigned long long>(out->handle) : 0ull);
    return out.value_or(pvfs::MdResponse{});
  };

  pvfs::MdRequest mk;
  mk.op = pvfs::MdOp::kMkdir;
  mk.dir = pvfs::kRootHandle;
  mk.name = "scratch";
  mk.mode = 0755;
  pvfs::Handle scratch = run_op(mk, "mkdir /scratch").handle;

  pvfs::MdRequest cr;
  cr.op = pvfs::MdOp::kCreate;
  cr.dir = scratch;
  cr.name = "checkpoint.000";
  run_op(cr, "create /scratch/checkpoint.000");

  // Fail a metadata server mid-stream.
  net.crash_host(hosts[0]);
  std::printf("[%7.3fs] >>> md0 crashed\n", simulation.now().seconds());
  cr.name = "checkpoint.001";
  run_op(cr, "create /scratch/checkpoint.001");

  pvfs::MdRequest rd;
  rd.op = pvfs::MdOp::kReaddir;
  rd.dir = scratch;
  pvfs::MdResponse listing = run_op(rd, "readdir /scratch");
  for (const pvfs::MdEntry& e : listing.entries)
    std::printf("    %s (%s)\n", e.name.c_str(),
                e.type == pvfs::ObjType::kDirectory ? "dir" : "file");

  simulation.run_for(sim::seconds(2));
  bool consistent = services[1]->snapshot() == services[2]->snapshot();
  std::printf("\nsurviving replicas byte-identical: %s\n",
              consistent ? "yes" : "NO");
  bool pass = consistent && listing.entries.size() == 2;

  telemetry::ScenarioReport report;
  report.set_meta("scenario", "pvfs_metadata");
  report.set("replicas", 3);
  report.set("surviving_replicas_consistent", consistent ? 1 : 0);
  report.set("scratch_entries", static_cast<double>(listing.entries.size()));
  report.set("md_objects_head1",
             static_cast<double>(services[1]->object_count()));
  report.set("md_operations_head1",
             static_cast<double>(services[1]->operations()));
  report.set("demo_passed", pass ? 1 : 0);
  report.note_metrics(simulation.telemetry().metrics());
  std::string report_path = prefix + ".report.json";
  if (!report.write_file(report_path)) {
    std::printf("FAILED to write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", report_path.c_str());

  std::printf("%s\n", pass ? "DEMO PASSED" : "DEMO FAILED");
  return pass ? 0 : 1;
}
