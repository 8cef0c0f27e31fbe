#include "serve/fleet.hpp"

#include <algorithm>
#include <utility>

namespace phonebit::serve {

namespace {

SchedulerConfig walk_config(const FleetConfig& c) {
  return {.exec_workers = c.exec_workers,
          .lanes = c.lanes_per_shard,
          .queue_limit = c.queue_limit,
          .max_retries = c.max_retries,
          .retry_backoff_ms = c.retry_backoff_ms,
          .default_deadline_ms = c.default_deadline_ms,
          .wait_weight = c.wait_weight};
}

}  // namespace

FleetServer::FleetServer(FleetConfig config, FaultPlan faults,
                         std::string name)
    : config_(std::move(config)),
      name_(name.empty() ? "fleet" : std::move(name)),
      scheduler_("FleetServer", name_, walk_config(config_), faults) {
  PB_CHECK(!config_.shards.empty(), "FleetServer needs at least one shard");
  shards_.reserve(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    Shard s;
    s.spec = config_.shards[i];
    if (s.spec.name.empty()) {
      s.spec.name = s.spec.profile + "/" + std::to_string(i);
    }
    // profile_by_name throws InvalidArgument (naming the known keys) for a
    // bad spec — the fleet fails at construction, not at first request.
    s.profile = oclsim::profile_by_name(s.spec.profile);
    if (s.spec.ram_mb > 0) s.profile.ram_mb = s.spec.ram_mb;
    s.device = std::make_shared<oclsim::Device>(s.profile, s.spec.host_threads);
    s.engine = std::make_unique<core::Engine>(s.device);
    scheduler_.add_shard(*s.engine, s.profile, s.spec.name);
    shards_.push_back(std::move(s));
  }
}

const FleetServer::Shard& FleetServer::shard_at(int shard) const {
  PB_CHECK(shard >= 0 && shard < shard_count(),
           "FleetServer '" << name_ << "': shard index " << shard
                           << " out of range [0, " << shard_count() << ")");
  return shards_[static_cast<std::size_t>(shard)];
}

core::Engine& FleetServer::engine(int shard) {
  return *shard_at(shard).engine;
}

const oclsim::DeviceProfile& FleetServer::shard_profile(int shard) const {
  return shard_at(shard).profile;
}

const ShardSpec& FleetServer::shard_spec(int shard) const {
  return shard_at(shard).spec;
}

void FleetServer::load_model(const std::string& model,
                             const std::vector<std::string>& per_shard_paths) {
  PB_CHECK(static_cast<int>(per_shard_paths.size()) == shard_count(),
           "FleetServer '" << name_ << "': load_model needs one path per "
                           << "shard (" << shard_count() << "), got "
                           << per_shard_paths.size());
  for (int i = 0; i < shard_count(); ++i) {
    if (per_shard_paths[static_cast<std::size_t>(i)].empty()) continue;
    load_model_on(i, model, per_shard_paths[static_cast<std::size_t>(i)]);
  }
}

void FleetServer::load_model_on(int shard, const std::string& model,
                                const std::string& path) {
  scheduler_.load(shard, model, path);
}

void FleetServer::swap_model_on(int shard, const std::string& model,
                                const std::string& path) {
  scheduler_.swap(shard, model, path);
}

std::uint64_t FleetServer::version_on(int shard,
                                      const std::string& model) const {
  return scheduler_.version(shard, model);
}

std::size_t FleetServer::compiled_plans() const {
  return scheduler_.compiled_plans();
}

int FleetServer::total_arena_growth_events() const {
  return scheduler_.total_arena_growth_events();
}

FleetSummary FleetServer::run(std::vector<Request> workload) {
  WalkResult walk = scheduler_.walk(nullptr, workload, {});
  const auto nshards = static_cast<std::size_t>(shard_count());
  FleetSummary summary;
  summary.wall_ms = walk.summary.wall_ms;
  summary.assignment = std::move(walk.summary.stage_assignment.front());
  summary.shards.resize(nshards);
  for (std::size_t si = 0; si < nshards; ++si) {
    ShardStats& st = summary.shards[si];
    st.shard = shards_[si].spec.name;
    st.profile = shards_[si].spec.profile;
    st.max_queue_depth = walk.shards[si].max_queue_depth;
    st.busy_ms = walk.shards[si].busy_ms;
    summary.makespan_ms =
        std::max(summary.makespan_ms, walk.shards[si].end_ms);
  }

  std::vector<double> ok_latency;
  std::vector<std::vector<double>> shard_ok_latency(nshards);
  for (CascadeRequestResult& w : walk.summary.results) {
    const StageOutcome& so = w.stages.front();
    FleetRequestResult rr;
    rr.status = std::move(w.status);
    rr.result = std::move(w.result);
    rr.shard = so.shard;
    rr.spillovers = so.spillovers;
    rr.attempts = so.attempts;
    rr.retries = so.retries;
    rr.plan_version = so.plan_version;
    rr.queue_ms = w.queue_ms;
    rr.latency_ms = w.latency_ms;
    summary.spillovers += rr.spillovers;
    account(summary, ok_latency, rr.status.code, rr.retries, rr.latency_ms);
    if (rr.shard >= 0) {
      const auto si = static_cast<std::size_t>(rr.shard);
      account(summary.shards[si], shard_ok_latency[si], rr.status.code,
              rr.retries, rr.latency_ms);
    }
    summary.results.push_back(std::move(rr));
  }
  for (std::size_t si = 0; si < nshards; ++si) {
    ShardStats& st = summary.shards[si];
    close_percentiles(st, shard_ok_latency[si]);
    if (summary.makespan_ms > 0.0) {
      st.utilization =
          st.busy_ms / (static_cast<double>(config_.lanes_per_shard) *
                        summary.makespan_ms);
    }
  }
  return summary;
}

CascadeSummary FleetServer::run_cascade(const CascadeSpec& spec,
                                        std::vector<Request> workload) {
  WalkResult walk = scheduler_.walk(&spec, workload, {});
  finalize_cascade_summary(walk.summary, spec);
  return std::move(walk.summary);
}

}  // namespace phonebit::serve
