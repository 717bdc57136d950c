#include "joshua/config_file.h"

#include <algorithm>

#include "util/strings.h"

namespace joshua {

namespace {

/// Read the `shards` section into a ShardLayout. Only the file syntax is
/// checked here (a missing shard section, a head index that is not a
/// number); whether the layout can be wired is ShardLayout::validate's call.
ShardLayout shard_layout_from(const jutil::Config& shards) {
  ShardLayout layout;
  layout.count = static_cast<int>(shards.get_int("count", 1));
  layout.id_stride = static_cast<pbs::JobId>(shards.get_int("stride", 0));
  // Without per-shard sections the heads split contiguously and submits
  // place by hash.
  if (layout.count < 1 || shards.section_titles("shard").empty())
    return layout;

  layout.heads.resize(static_cast<size_t>(layout.count));
  layout.queues.resize(static_cast<size_t>(layout.count));
  for (int s = 0; s < layout.count; ++s) {
    const jutil::Config* shard = shards.section("shard", std::to_string(s));
    if (shard == nullptr)
      throw jutil::ConfigError("shards: missing section 'shard " +
                               std::to_string(s) + "' (count = " +
                               std::to_string(layout.count) + ")");
    size_t ix = static_cast<size_t>(s);
    for (const std::string& h : shard->get_list("heads")) {
      try {
        layout.heads[ix].push_back(std::stoi(h));
      } catch (const std::exception&) {
        throw jutil::ConfigError("shard " + std::to_string(s) +
                                 ": bad head index '" + h + "'");
      }
    }
    layout.queues[ix] = shard->get_list("queues");
  }
  auto all_empty = [](const auto& lists) {
    for (const auto& list : lists)
      if (!list.empty()) return false;
    return true;
  };
  if (all_empty(layout.heads)) layout.heads.clear();
  if (all_empty(layout.queues)) layout.queues.clear();
  return layout;
}

/// The `ordering` keys. Only the keys present change `options`.
void read_ordering(const jutil::Config& section, ClusterOptions& options) {
  std::string engine = jutil::to_lower(section.get_string("engine", ""));
  if (!engine.empty()) {
    std::optional<gcs::OrderingMode> mode = gcs::parse_ordering_mode(engine);
    if (!mode)
      throw jutil::ConfigError(
          "ordering engine must be 'allack' or 'token', got '" + engine + "'");
    options.ordering = *mode;
  }
  auto read_count = [&](const std::string& key, uint32_t& field) {
    int64_t v = section.get_int(key, field);
    if (v < 0 || v > UINT32_MAX)
      throw jutil::ConfigError("ordering " + key +
                               " must be in [0, 2^32), got " +
                               std::to_string(v));
    field = static_cast<uint32_t>(v);
  };
  read_count("batch", options.order_batch);
  read_count("window", options.order_window);
}

/// The `scheduling` keys: any known policy/selector pair, plus aging. Only
/// the keys present change `options`. Unknown names are a deployment
/// mistake -- fail the parse, never fall back silently (heads running
/// different policies would diverge).
void read_scheduling(const jutil::Config& section, ClusterOptions& options) {
  pbs::SchedulerConfig& sched = options.sched;
  auto read_name = [&](const std::string& key, std::string& field,
                       const std::vector<std::string>& names) {
    std::string name = jutil::to_lower(section.get_string(key, field));
    if (std::find(names.begin(), names.end(), name) == names.end())
      throw jutil::ConfigError("scheduling " + key + " '" + name +
                               "' is not known (have: " +
                               jutil::join(names, ", ") + ")");
    field = name;
  };
  read_name("policy", sched.policy, pbs::sched_policy_names());
  read_name("selector", sched.selector, pbs::node_selector_names());
  sched.exclusive_cluster =
      section.get_bool("exclusive", sched.exclusive_cluster);
  if (section.has("aging_s")) {
    int64_t aging_s = section.get_int("aging_s");
    if (aging_s < 0)
      throw jutil::ConfigError("scheduling aging_s must be >= 0, got " +
                               std::to_string(aging_s));
    sched.priority_aging = sim::seconds(aging_s);
  }
}

/// The environment knobs, each as one key of one section.
struct EnvKnob {
  const char* variable;
  const char* key;
  void (*read)(const jutil::Config& section, ClusterOptions& options);
};

constexpr EnvKnob kEnvKnobs[] = {
    {"JOSHUA_ORDERING", "engine", read_ordering},
    {"JOSHUA_ORDER_BATCH", "batch", read_ordering},
    {"JOSHUA_ORDER_WINDOW", "window", read_ordering},
    {"JOSHUA_SCHED", "policy", read_scheduling},
    {"JOSHUA_SELECT", "selector", read_scheduling},
};

}  // namespace

ClusterOptions cluster_options_from_config(std::string_view text,
                                           ClusterOptions base) {
  jutil::Config cfg = jutil::Config::parse(text);
  ClusterOptions options = std::move(base);
  options.head_count =
      static_cast<int>(cfg.get_int("heads", options.head_count));
  options.compute_count =
      static_cast<int>(cfg.get_int("computes", options.compute_count));

  std::string transfer = jutil::to_lower(cfg.get_string(
      "transfer",
      options.transfer == TransferMode::kReplay ? "replay" : "snapshot"));
  if (transfer == "replay") {
    options.transfer = TransferMode::kReplay;
  } else if (transfer == "snapshot") {
    options.transfer = TransferMode::kSnapshot;
  } else {
    throw jutil::ConfigError("transfer must be 'replay' or 'snapshot', got '" +
                             transfer + "'");
  }
  options.auto_rejoin = cfg.get_bool("auto_rejoin", options.auto_rejoin);
  options.quirk_mom = cfg.get_bool("quirk_mom", options.quirk_mom);
  options.require_majority =
      cfg.get_bool("require_majority", options.require_majority);
  options.seed = static_cast<uint64_t>(
      cfg.get_int("seed", static_cast<int64_t>(options.seed)));

  // The pre-plugin section would otherwise pass as an unknown key, and the
  // heads would quietly run FIFO.
  if (!cfg.section_titles("scheduler").empty())
    throw jutil::ConfigError(
        "the 'scheduler' section is retired: use 'scheduling { policy, "
        "selector, exclusive, aging_s }'");
  if (const jutil::Config* sched = cfg.section("scheduling", ""))
    read_scheduling(*sched, options);

  if (const jutil::Config* timing = cfg.section("gcs", "")) {
    auto read_ms = [timing](const std::string& key, sim::Duration& field) {
      if (timing->has(key)) field = sim::msec(timing->get_int(key));
    };
    read_ms("heartbeat_ms", options.gcs_heartbeat);
    read_ms("suspect_ms", options.gcs_suspect);
    read_ms("flush_ms", options.gcs_flush);
  }

  if (const jutil::Config* ordering = cfg.section("ordering", ""))
    read_ordering(*ordering, options);

  if (const jutil::Config* shards = cfg.section("shards", ""))
    options.shards = shard_layout_from(*shards);
  options.shards.validate(options.head_count, options.compute_count,
                          options.with_joshua);
  return options;
}

void apply_env(ClusterOptions& options, const EnvLookup& lookup) {
  for (const EnvKnob& knob : kEnvKnobs) {
    const char* value = lookup(knob.variable);
    if (value == nullptr || *value == '\0') continue;
    jutil::Config section;
    section.set(knob.key, value);
    try {
      knob.read(section, options);
    } catch (const jutil::ConfigError& e) {
      throw jutil::ConfigError(std::string(knob.variable) + ": " + e.what());
    }
  }
}

void apply_env(gcs::GroupConfig& group, const EnvLookup& lookup) {
  ClusterOptions options;
  options.ordering = group.ordering;
  options.order_batch = group.order_batch;
  options.order_window = group.inflight_window;
  apply_env(options, lookup);
  group.ordering = options.ordering;
  group.order_batch = options.order_batch;
  group.inflight_window = options.order_window;
}

std::string cluster_options_to_config(const ClusterOptions& options) {
  jutil::Config cfg;
  cfg.set("heads", std::to_string(options.head_count));
  cfg.set("computes", std::to_string(options.compute_count));
  cfg.set("transfer", options.transfer == TransferMode::kReplay ? "replay"
                                                                : "snapshot");
  cfg.set("auto_rejoin", options.auto_rejoin ? "true" : "false");
  cfg.set("quirk_mom", options.quirk_mom ? "true" : "false");
  cfg.set("require_majority", options.require_majority ? "true" : "false");
  cfg.set("seed", std::to_string(options.seed));
  jutil::Config& sched = cfg.add_section("scheduling", "");
  sched.set("policy", options.sched.policy);
  sched.set("selector", options.sched.selector);
  sched.set("exclusive", options.sched.exclusive_cluster ? "true" : "false");
  sched.set("aging_s",
            std::to_string(options.sched.priority_aging.us / 1'000'000));
  jutil::Config& timing = cfg.add_section("gcs", "");
  timing.set("heartbeat_ms", std::to_string(options.gcs_heartbeat.us / 1000));
  timing.set("suspect_ms", std::to_string(options.gcs_suspect.us / 1000));
  timing.set("flush_ms", std::to_string(options.gcs_flush.us / 1000));
  jutil::Config& ordering = cfg.add_section("ordering", "");
  ordering.set("engine", std::string(gcs::to_string(options.ordering)));
  ordering.set("batch", std::to_string(options.order_batch));
  ordering.set("window", std::to_string(options.order_window));
  const ShardLayout& layout = options.shards;
  if (layout.count != 1 || layout.id_stride != 0 || !layout.heads.empty() ||
      !layout.queues.empty()) {
    jutil::Config& shards = cfg.add_section("shards", "");
    shards.set("count", std::to_string(layout.count));
    if (layout.id_stride != 0)
      shards.set("stride", std::to_string(layout.id_stride));
    if (!layout.heads.empty() || !layout.queues.empty()) {
      for (int s = 0; s < layout.count; ++s) {
        jutil::Config& shard = shards.add_section("shard", std::to_string(s));
        size_t ix = static_cast<size_t>(s);
        if (ix < layout.heads.size() && !layout.heads[ix].empty()) {
          std::vector<std::string> heads;
          for (int h : layout.heads[ix]) heads.push_back(std::to_string(h));
          shard.set_list("heads", std::move(heads));
        }
        if (ix < layout.queues.size() && !layout.queues[ix].empty())
          shard.set_list("queues", layout.queues[ix]);
      }
    }
  }
  return cfg.to_string();
}

}  // namespace joshua
