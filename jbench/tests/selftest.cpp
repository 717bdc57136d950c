// The benchmark's own tests: percentile naming, determinism of plans and
// reps, and the JOSHUA_* guard. Exit status 0 when every check passes.
//
//   python3 jbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::string plan_text(const std::vector<jbench::Command>& plan) {
  std::string s;
  for (const auto& c : plan) {
    s += std::to_string(static_cast<int>(c.kind)) + ":" +
         std::to_string(c.client) + ":" + std::to_string(c.target) + ":" +
         std::to_string(c.due.us) + ":" + c.spec.user + ":" +
         std::to_string(c.spec.script.size()) + ";";
  }
  return s;
}

void percentile_rule() {
  using jbench::top_percentile;
  expect(top_percentile(1000) == 99, "1000 samples name p99");
  expect(top_percentile(999) == 98, "999 samples name p98");
  expect(top_percentile(200) == 95, "200 samples name p95");
  expect(top_percentile(249) == 95, "249 samples name p95");
  expect(top_percentile(250) == 96, "250 samples name p96");
  expect(top_percentile(199) == 94, "199 samples name p94");
  expect(top_percentile(10) == 0, "10 samples name no percentile");
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  expect(jbench::nearest_rank(v, 95) == 190, "nearest-rank p95 of 1..200");
  expect(jbench::nearest_rank(v, 50) == 100, "nearest-rank p50 of 1..200");
  expect(jbench::median({3, 1, 2, 10}) == 2.5, "median of an even sample");
}

void plans_follow_the_seed() {
  for (const auto& name : jbench::workload_names()) {
    auto w = jbench::make_workload(name, 7);
    auto a = plan_text(jbench::plan_commands(w, 7));
    auto b = plan_text(jbench::plan_commands(w, 7));
    auto c = plan_text(jbench::plan_commands(jbench::make_workload(name, 8), 8));
    expect(a == b, name + ": same seed, same command stream");
    expect(a != c, name + ": other seed, other command stream");
    auto plan = jbench::plan_commands(w, 7);
    std::array<int, jbench::kKinds> count{};
    for (size_t i = static_cast<size_t>(w.backlog); i < plan.size(); ++i)
      ++count[static_cast<size_t>(plan[i].kind)];
    int per = w.cycle_own_job ? w.clients : 1;
    bool exact = true;
    for (size_t k = 0; k < count.size(); ++k)
      exact = exact && count[k] == w.block[k] * w.blocks * per;
    expect(exact, name + ": a fixed count of each kind");
  }
}

void reps_are_deterministic() {
  // A shortened paper4_mix keeps the test quick; the code path is the same.
  auto w = jbench::make_workload("paper4_mix", 3);
  w.blocks = 4;
  auto plan = jbench::plan_commands(w, 3);
  auto a = jbench::run_rep(w, plan, false, nullptr, 0);
  auto b = jbench::run_rep(w, plan, true, nullptr, 1);
  expect(a.errors.empty() && b.errors.empty(), "reps pass their checks");
  expect(a.digest != 0 && a.digest == b.digest, "same seed, same digest");
  expect(a.sim_signature() == b.sim_signature(),
         "same seed, same simulated metrics, traced or not");
  auto w4 = jbench::make_workload("paper4_mix", 4);
  w4.blocks = 4;
  auto c = jbench::run_rep(w4, jbench::plan_commands(w4, 4), false, nullptr, 0);
  expect(c.errors.empty() && c.sim_signature() != a.sim_signature(),
         "other seed, other simulated metrics");
}

void env_guard() {
  char path[] = "PATH=/usr/bin";
  char knob[] = "JOSHUA_ORDERING=token";
  char near[] = "XJOSHUA_SCHED=fifo";
  char* env[] = {path, knob, near, nullptr};
  auto found = jbench::joshua_env_vars(env);
  expect(found.size() == 1 && found[0] == "JOSHUA_ORDERING",
         "guard names JOSHUA_ORDERING and nothing else");
  char* clean[] = {path, nullptr};
  expect(jbench::joshua_env_vars(clean).empty(), "guard passes a clean env");
}

}  // namespace

int main() {
  percentile_rule();
  plans_follow_the_seed();
  reps_are_deterministic();
  env_guard();
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
