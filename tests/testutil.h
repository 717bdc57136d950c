// Shared helpers for the test suite.
#pragma once

#include <cstdlib>
#include <functional>

#include "joshua/config_file.h"
#include "sim/simulation.h"

namespace testutil {

/// The configuration a test inherits unless it pins its own: the library
/// defaults with the JOSHUA_* knobs applied (joshua::apply_env), so CI runs
/// the unchanged suite under another engine, batching or policy.
inline joshua::ClusterOptions env_options() {
  joshua::ClusterOptions options;
  joshua::apply_env(options, std::getenv);
  return options;
}

/// Run the simulation in small slices until `pred` holds or `deadline`
/// simulated time passes. Returns whether the predicate held.
inline bool run_until(sim::Simulation& sim, const std::function<bool()>& pred,
                      sim::Duration deadline = sim::seconds(60),
                      sim::Duration slice = sim::msec(10)) {
  sim::Time limit = sim.now() + deadline;
  while (sim.now() < limit) {
    if (pred()) return true;
    sim.run_for(slice);
  }
  return pred();
}

}  // namespace testutil
