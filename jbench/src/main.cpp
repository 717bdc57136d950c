// jbench: the repository benchmark driver.
//
//   jbench --workload paper4_mix --seed 1 --seconds 10 --trace 0 [--out DIR]
//
// Runs identical reps of one workload (fresh cluster, same seed) until
// --seconds of host time have gone by, discards the first, and prints the
// metrics: simulated ones (identical in every rep), the median set-up time
// and the fastest rep's host throughput. The last stdout line is the JSON
// result; earlier lines are information (digest, sample and failure
// counts, per-rep host times).
// --trace 1 prints the per-layer metrics instead and writes the spans to
// DIR/trace_<workload>.json. Exit status is non-zero when a correctness
// check fails or the arguments are bad.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "spans.h"

extern char** environ;

namespace {

using namespace jbench;

/// Fewest reps a run measures (after the discarded first one), however long
/// they take; and the most, however short.
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;
constexpr int kRigReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "jbench: %s\nusage: jbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_result(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[192];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit);
    s += buf;
  }
  s += "}}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::vector<std::string> stray = joshua_env_vars(environ);
  if (!stray.empty()) {
    std::fprintf(stderr,
                 "jbench: refusing to run with %s set: the program's default "
                 "configuration reads JOSHUA_* variables, so the run would "
                 "measure a different program\n",
                 stray.front().c_str());
    return 2;
  }
  Workload w;
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const std::vector<Command> plan = plan_commands(w, args.seed);

  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;
  std::vector<std::string> errors;
  std::vector<RepResult> reps;
  std::vector<RepResult> traced_reps;
  std::string signature;
  std::set<std::string> seen;  // reps are identical: report each error once

  auto check = [&](const RepResult& r, int rep) {
    for (const auto& e : r.errors)
      if (seen.insert(e).second)
        errors.push_back("rep " + std::to_string(rep) + ": " + e);
    std::string sig = r.sim_signature();
    if (signature.empty()) {
      signature = sig;
    } else if (sig != signature) {
      errors.push_back("rep " + std::to_string(rep) +
                       ": simulated metrics differ from rep 0's "
                       "(nondeterminism)");
    }
  };

  // Rep 0 warms the process up; it is checked, never reported.
  check(run_rep(w, plan, false, nullptr, 0), 0);
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // A failed check does not stop the run: the metrics are still printed,
  // with "correct": false.
  for (int rep = 1; rep <= kMaxReps; ++rep) {
    // Traced runs alternate traced and untraced reps: the untraced ones are
    // the base for trace_overhead_pct and the host shares.
    bool traced = args.trace && rep % 2 == 0;
    RepResult r = run_rep(w, plan, traced, traced ? span_log : nullptr, rep);
    check(r, rep);
    std::printf("rep %d%s: setup %.4f s, timed %.4f s\n", rep,
                traced ? " (traced)" : "", r.setup_s, r.timed_s);
    (traced ? traced_reps : reps).push_back(std::move(r));
    int done = static_cast<int>(reps.size() + traced_reps.size());
    if (done >= kMinReps * (args.trace ? 2 : 1) && elapsed() >= args.seconds)
      break;
  }
  if (reps.empty() || reps.front().commands() == 0) {
    for (const auto& e : errors) std::fprintf(stderr, "jbench: %s\n", e.c_str());
    std::fprintf(stderr, "jbench: no rep completed\n");
    return 1;
  }

  const RepResult& first = reps.front();
  uint64_t attempted = 0, failed = 0;
  for (const auto& r : reps) {
    attempted += r.commands();
    failed += r.failed[0] + r.failed[1] + r.failed[2];
  }
  // Host time: the fastest rep's timed phase. On a shared VM, neighbour
  // contention only ever slows a rep, in waves of 20-30 s; the fastest rep
  // of a run moved 3.7% between runs where the median rep moved 13% (see
  // README.md). Every rep does identical work, so none can be fast by luck.
  auto fastest = [](const std::vector<RepResult>& v) {
    double best = v.front().timed_s;
    for (const auto& r : v) best = std::min(best, r.timed_s);
    return best;
  };
  const double timed_s = fastest(reps);
  const double completed = static_cast<double>(first.completed());
  std::vector<double> setup;
  for (const auto& r : reps) setup.push_back(r.setup_s);

  std::printf("workload %s seed %llu: %zu reps, digest %016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size() + traced_reps.size(),
              static_cast<unsigned long long>(first.digest));
  std::vector<Metric> e2e = {
      {"setup_s", median(setup), "s"},
      {"host_cmds_per_s", completed / timed_s, "cmds/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Latency: the median per kind is the gated metric. The highest
  // percentile with ten samples beyond it depends on the kind's sample count,
  // which differs between workloads, so it is printed here, by its name.
  for (int k = 0; k < kKinds; ++k) {
    const auto& lat = first.latency_ms[static_cast<size_t>(k)];
    const std::string kind(kKindNames[static_cast<size_t>(k)]);
    const int top = top_percentile(lat.size());
    std::printf("%s: attempted %llu, failed %llu; %zu samples: p50 %.3f ms",
                kind.c_str(),
                static_cast<unsigned long long>(first.attempted[static_cast<size_t>(k)]),
                static_cast<unsigned long long>(first.failed[static_cast<size_t>(k)]),
                lat.size(), nearest_rank(lat, 50));
    if (top > 50) std::printf(", p%d %.3f ms", top, nearest_rank(lat, top));
    std::printf("\n");
    e2e.push_back({kind + "_ms_p50", nearest_rank(lat, 50), "ms"});
  }
  e2e.push_back({"ordered_cmds_per_s", first.ordered_cmds_per_s, "cmds/s"});
  const double failed_pct = 100.0 * static_cast<double>(first.commands() -
                                                        first.completed()) /
                            static_cast<double>(first.commands());
  std::printf("failed_ops_pct %.4f (%llu of %llu)\n", failed_pct,
              static_cast<unsigned long long>(first.commands() - first.completed()),
              static_cast<unsigned long long>(first.commands()));
  if (w.open_loop) {
    // head_failover is not in BENCHMARK.json (README.md, "Program defects"),
    // so its failover figures are information, not per-layer metrics.
    std::printf("failover_gap_ms %.3f, rejoin_s %.3f, replays_applied %.0f, "
                "client_failovers %.0f\n",
                first.failover_gap_ms, first.rejoin_s,
                first.layer.at("joshua.replays_applied"),
                first.layer.at("client.failovers"));
    if (first.failover_gap_ms <= 0)
      errors.push_back("no command due after the crash was answered");
    if (first.rejoin_s <= 0)
      errors.push_back("the crashed head did not rejoin with the survivors' "
                       "live table");
  }
  for (const auto& [k, v] : first.samples)
    std::printf("samples %s %.0f\n", k.c_str(), v);
  if (first.samples.at("net.medium_wait") < 1000)
    errors.push_back("too few hub samples to name net.medium_wait_ms_p99");

  std::vector<Metric> out = e2e;
  if (args.trace) {
    const double cmds = static_cast<double>(first.commands());
    const double heads = static_cast<double>(w.cluster.head_count);
    out.clear();
    const char* unit_of[][2] = {
        {"sim.events_per_cmd", "events/cmd"},
        {"net.frames_per_cmd", "frames/cmd"},
        {"net.bytes_per_cmd", "B/cmd"},
        {"net.medium_wait_ms_p99", "ms"},
        {"gcs.order_ms_p50", "ms"},
        {"gcs.ctrl_msgs_per_cmd", "msgs/msg"},
        {"gcs.nacks_per_cmd", "msgs/cmd"},
        {"gcs.retransmits_per_cmd", "msgs/cmd"},
        {"gcs.views_installed", "count"},
        {"pbs.sched_cycles_per_cmd", "cycles/cmd"},
        {"joshua.intercept_ms_p50", "ms"},
    };
    std::map<std::string, double> layer = first.layer;
    layer["sim.events_per_cmd"] = static_cast<double>(first.events) / cmds;
    for (const auto& [name, unit] : unit_of) out.push_back({name, layer.at(name), unit});
    out.push_back({"failed_ops_pct", failed_pct, "%"});

    // Each rig runs kRigReps times and reports its fastest, the same
    // estimator as the workload's own host time.
    auto best_of = [](auto rig) {
      double best = rig();
      for (int i = 1; i < kRigReps; ++i) best = std::min(best, rig());
      return best;
    };
    double pbs_us = 0, gcs_us = 0, sim_ns = 0;
    try {
      pbs_us = best_of([&] { return pbs_us_per_cmd(w, plan, span_log); });
      gcs_us = best_of([&] {
        return gcs_us_per_msg(
            w, first.gcs_msgs,
            static_cast<size_t>(std::lround(first.gcs_mean_payload)),
            first.gcs_senders, span_log);
      });
      sim_ns = best_of([&] {
        return sim_ns_per_event(
            first.events, static_cast<size_t>(std::lround(first.mean_pending)),
            args.seed, span_log);
      });
    } catch (const std::runtime_error& e) {
      errors.push_back(std::string("layer rig: ") + e.what());
    }
    const double pbs_share = pbs_us * 1e-6 * cmds * heads / timed_s;
    const double gcs_share =
        gcs_us * 1e-6 * static_cast<double>(first.gcs_msgs) / timed_s;
    const double sim_share =
        sim_ns * 1e-9 * static_cast<double>(first.events) / timed_s;
    out.push_back({"host.pbs_us_per_cmd", pbs_us, "us"});
    out.push_back({"host.pbs_share", pbs_share, "fraction"});
    out.push_back({"host.gcs_us_per_msg", gcs_us, "us"});
    out.push_back({"host.gcs_share", gcs_share, "fraction"});
    out.push_back({"host.sim_ns_per_event", sim_ns, "ns"});
    out.push_back({"host.sim_share", sim_share, "fraction"});
    out.push_back({"host.joshua_net_share",
                   1.0 - pbs_share - gcs_share - sim_share, "fraction"});
    out.push_back({"trace_overhead_pct",
                   100.0 * (fastest(traced_reps) / timed_s - 1.0), "%"});
    std::printf("rigs: pbs %.0f cmds x %.0f heads, gcs %llu msgs of %.0f B "
                "from %d sender(s), sim %llu events at depth %.0f\n",
                cmds, heads, static_cast<unsigned long long>(first.gcs_msgs),
                first.gcs_mean_payload, first.gcs_senders,
                static_cast<unsigned long long>(first.events),
                first.mean_pending);
    std::printf("layer split (estimate): pbs %.3f, gcs %.3f, sim %.3f of %.4f "
                "host s; pbs_share %s gcs_share\n",
                pbs_share, gcs_share, sim_share, timed_s,
                pbs_share > gcs_share ? ">" : "<=");
    const std::string path = args.out + "/trace_" + w.name + ".json";
    if (spans.write_chrome_json(path))
      std::printf("trace: %zu spans in %s\n", spans.size(), path.c_str());
    else
      errors.push_back("cannot write " + path);
  }

  for (const auto& e : errors) std::fprintf(stderr, "jbench: %s\n", e.c_str());
  std::printf("%s\n", json_result(errors.empty(), attempted, failed, out).c_str());
  return errors.empty() ? 0 : 1;
}
