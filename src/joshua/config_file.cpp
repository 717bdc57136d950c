#include "joshua/config_file.h"

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

}  // namespace

ClusterOptions cluster_options_from_config(std::string_view text) {
  jutil::Config cfg = jutil::Config::parse(text);
  ClusterOptions options;
  options.head_count = static_cast<int>(cfg.get_int("heads", 2));
  options.compute_count = static_cast<int>(cfg.get_int("computes", 2));

  std::string transfer =
      jutil::to_lower(cfg.get_string("transfer", "replay"));
  if (transfer == "replay") {
    options.transfer = TransferMode::kReplay;
  } else if (transfer == "snapshot") {
    options.transfer = TransferMode::kSnapshot;
  } else {
    throw jutil::ConfigError("transfer must be 'replay' or 'snapshot', got '" +
                             transfer + "'");
  }
  options.auto_rejoin = cfg.get_bool("auto_rejoin", false);
  options.quirk_mom = cfg.get_bool("quirk_mom", false);
  options.require_majority = cfg.get_bool("require_majority", false);
  options.seed = static_cast<uint64_t>(cfg.get_int("seed", 1));

  // Legacy section: the pre-plugin scheduler only knew fifo/backfill.
  // Accepted unchanged so existing deployment files keep working.
  if (const jutil::Config* sched = cfg.section("scheduler", "")) {
    std::string policy =
        jutil::to_lower(sched->get_string("policy", "fifo"));
    if (policy != "fifo" && policy != "backfill")
      throw jutil::ConfigError("scheduler policy must be 'fifo' or "
                               "'backfill', got '" + policy + "'");
    options.sched.policy = policy;
    options.sched.exclusive_cluster = sched->get_bool("exclusive", true);
  }

  // Plugin-era section: any registered policy/selector pair, plus aging.
  // Unknown names are a deployment mistake -- fail the parse, never fall
  // back silently (heads running different policies would diverge).
  if (const jutil::Config* sched = cfg.section("scheduling", "")) {
    std::string policy = jutil::to_lower(
        sched->get_string("policy", options.sched.policy));
    if (pbs::find_sched_policy(policy) == nullptr)
      throw jutil::ConfigError(
          "scheduling policy '" + policy + "' is not registered (have: " +
          jutil::join(pbs::sched_policy_names(), ", ") + ")");
    options.sched.policy = policy;
    std::string selector = jutil::to_lower(
        sched->get_string("selector", options.sched.selector));
    if (pbs::find_node_selector(selector) == nullptr)
      throw jutil::ConfigError(
          "scheduling selector '" + selector + "' is not registered (have: " +
          jutil::join(pbs::node_selector_names(), ", ") + ")");
    options.sched.selector = selector;
    options.sched.exclusive_cluster =
        sched->get_bool("exclusive", options.sched.exclusive_cluster);
    int64_t aging_s = sched->get_int("aging_s", 0);
    if (aging_s < 0)
      throw jutil::ConfigError("scheduling aging_s must be >= 0, got " +
                               std::to_string(aging_s));
    options.sched.priority_aging = sim::seconds(aging_s);
  }

  if (const jutil::Config* gcs = cfg.section("gcs", "")) {
    options.gcs_heartbeat = sim::msec(gcs->get_int("heartbeat_ms", 0));
    options.gcs_suspect = sim::msec(gcs->get_int("suspect_ms", 0));
    options.gcs_flush = sim::msec(gcs->get_int("flush_ms", 0));
  }

  if (const jutil::Config* ordering = cfg.section("ordering", "")) {
    std::string engine =
        jutil::to_lower(ordering->get_string("engine", ""));
    if (!engine.empty()) {
      std::optional<gcs::OrderingMode> mode = gcs::parse_ordering_mode(engine);
      if (!mode)
        throw jutil::ConfigError(
            "ordering engine must be 'allack' or 'token', got '" + engine +
            "'");
      options.ordering = *mode;
    }
    // Defaults keep whatever the environment knobs seeded so a file that
    // only picks an engine does not silently reset a benchmark's env sweep.
    int64_t batch = ordering->get_int(
        "batch", static_cast<int64_t>(options.order_batch));
    int64_t window = ordering->get_int(
        "window", static_cast<int64_t>(options.order_window));
    if (batch < 0)
      throw jutil::ConfigError("ordering batch must be >= 0, got " +
                               std::to_string(batch));
    if (window < 0)
      throw jutil::ConfigError("ordering window must be >= 0, got " +
                               std::to_string(window));
    options.order_batch = static_cast<uint32_t>(batch);
    options.order_window = static_cast<uint32_t>(window);
  }

  if (const jutil::Config* shards = cfg.section("shards", ""))
    options.shards = shard_layout_from(*shards);
  options.shards.validate(options.head_count, options.compute_count,
                          options.with_joshua);
  return options;
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
  // Resolve the engine name before the local `gcs` below shadows the
  // namespace.
  std::string engine_name{gcs::to_string(options.ordering)};
  jutil::Config& gcs = cfg.add_section("gcs", "");
  gcs.set("heartbeat_ms", std::to_string(options.gcs_heartbeat.us / 1000));
  gcs.set("suspect_ms", std::to_string(options.gcs_suspect.us / 1000));
  gcs.set("flush_ms", std::to_string(options.gcs_flush.us / 1000));
  jutil::Config& ordering = cfg.add_section("ordering", "");
  ordering.set("engine", engine_name);
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
