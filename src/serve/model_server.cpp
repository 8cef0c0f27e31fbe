#include "serve/model_server.hpp"

#include <algorithm>
#include <utility>

namespace phonebit::serve {

namespace {

SchedulerConfig walk_config(const ServerConfig& c) {
  return {.exec_workers = c.exec_workers,
          .lanes = c.lanes,
          .queue_limit = c.queue_limit,
          .max_retries = c.max_retries,
          .retry_backoff_ms = c.retry_backoff_ms,
          .default_deadline_ms = c.default_deadline_ms};
}

}  // namespace

ModelServer::ModelServer(core::Engine& engine, ServerConfig config,
                         FaultPlan faults, std::string name)
    : config_(config),
      name_(name.empty() ? "model-server" : std::move(name)),
      scheduler_("ModelServer", name_, walk_config(config_), faults) {
  scheduler_.add_shard(engine, engine.device().profile(), {});
}

void ModelServer::load_model(const std::string& model,
                             const std::string& path) {
  scheduler_.load(0, model, path);
}

void ModelServer::swap_model(const std::string& model,
                             const std::string& path) {
  scheduler_.swap(0, model, path);
}

std::uint64_t ModelServer::version(const std::string& model) const {
  return scheduler_.version(0, model);
}

std::vector<std::string> ModelServer::models() const {
  return scheduler_.models(0);
}

ServerSummary ModelServer::run(std::vector<Request> workload,
                               std::vector<SwapEvent> swaps) {
  WalkResult walk = scheduler_.walk(nullptr, workload, std::move(swaps));
  ServerSummary summary;
  summary.swaps = walk.summary.swaps;
  summary.swap_rollbacks = walk.summary.swap_rollbacks;
  summary.max_queue_depth = walk.shards[0].max_queue_depth;
  summary.wall_ms = walk.summary.wall_ms;

  // Per-model accounting, one entry per model in order of first sight.
  struct PerModel {
    ModelStats stats;
    std::vector<double> ok_latency;
  };
  std::vector<PerModel> per_model;
  std::vector<double> ok_latency;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    CascadeRequestResult& w = walk.summary.results[i];
    const StageOutcome& so = w.stages.front();
    RequestResult rr;
    rr.status = std::move(w.status);
    rr.result = std::move(w.result);
    rr.attempts = so.attempts;
    rr.retries = so.retries;
    rr.plan_version = so.plan_version;
    rr.queue_ms = w.queue_ms;
    rr.latency_ms = w.latency_ms;

    auto m = std::find_if(per_model.begin(), per_model.end(),
                          [&](const PerModel& e) {
                            return e.stats.model == workload[i].model;
                          });
    if (m == per_model.end()) {
      m = per_model.insert(per_model.end(), PerModel{});
      m->stats.model = workload[i].model;
    }
    account(summary, ok_latency, rr.status.code, rr.retries, rr.latency_ms);
    account(m->stats, m->ok_latency, rr.status.code, rr.retries,
            rr.latency_ms);
    m->stats.max_queue_depth =
        std::max(m->stats.max_queue_depth, walk.queue_depth[i]);
    summary.results.push_back(std::move(rr));
  }
  for (PerModel& m : per_model) {
    close_percentiles(m.stats, m.ok_latency);
    summary.models.push_back(std::move(m.stats));
  }
  return summary;
}

CascadeSummary ModelServer::run_cascade(const CascadeSpec& spec,
                                        std::vector<Request> workload,
                                        std::vector<SwapEvent> swaps) {
  WalkResult walk = scheduler_.walk(&spec, workload, std::move(swaps));
  CascadeSummary& summary = walk.summary;
  // A single server places nothing: its stages report no shard and no
  // spillovers, and the placement histogram stays empty.
  summary.stage_assignment.clear();
  for (CascadeRequestResult& rr : summary.results) {
    for (StageOutcome& so : rr.stages) {
      so.shard = -1;
      so.spillovers = 0;
    }
  }
  finalize_cascade_summary(summary, spec);
  return std::move(summary);
}

}  // namespace phonebit::serve
