// PhoneBit serve — the fault-tolerant serving control plane.
//
// ModelServer is the layer a production deployment talks to: a repository
// of loaded .pba artifacts keyed by model name, fronted by admission
// control (bounded queue with load shedding), per-request deadlines,
// bounded retry-with-backoff for transient faults, and atomic artifact
// hot-swap on a live server. Underneath, every admitted request executes
// through a per-model-version BatchRunner (batch_runner.hpp), so the
// zero-compile / zero-allocation artifact serving path is unchanged.
//
// Failure is a value: every submitted request comes back with exactly one
// RequestStatus — Ok, Shed (rejected at admission, never executed),
// DeadlineExceeded (past its budget before execution could complete), or
// Failed{error} (unknown model, wrong input shape, exhausted retries).
// Nothing is lost, and a request that can never run is failed before
// admission, so it holds no queue slot and costs its neighbours nothing.
//
// A ModelServer is a one-shard Scheduler (scheduler.hpp, DESIGN.md §9)
// over the borrowed Engine: run() walks one stage routed by
// Request::model, run_cascade() walks a CascadeSpec's stages, and both
// make every admission, deadline, retry and shed decision in VIRTUAL
// time — the trace's arrival timestamps plus the plan's modeled device
// latency on `ServerConfig::lanes` simulated lanes, never host wall time.
// The decision sequence is a pure function of (workload, config, fault
// plan): the same trace gives bit-identical accounting whether real
// execution uses 1 worker or 16. Shed and expired requests never execute.
//
// Hot-swap lifecycle: swap_model loads + validates the incoming artifact
// FIRST; only a fully validated artifact replaces the repository entry
// (version bump, fresh BatchRunner). A corrupt or over-budget artifact
// throws and the old model keeps serving — rollback is the no-op. A run
// sees the repository as it stood when the run began plus its own
// scheduled SwapEvents, each applying from its virtual timestamp on; every
// request runs against exactly one plan version, never a mix. A swap_model
// from another thread during a run applies from the next run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "serve/cascade.hpp"
#include "serve/fault.hpp"
#include "serve/scheduler.hpp"

namespace phonebit::serve {

/// Per-request outcome: the status, the forward result (Ok only), and the
/// virtual-time accounting every decision was made with.
struct RequestResult {
  RequestStatus status;
  core::ForwardResult result;  ///< engaged only when status.ok()

  int attempts = 0;  ///< execution attempts accounted (1 + retries), 0 if shed
  int retries = 0;   ///< retries consumed by injected transient faults
  std::uint64_t plan_version = 0;  ///< model version that served (or shed) it
  double queue_ms = 0.0;    ///< virtual wait between arrival and dispatch
  double latency_ms = 0.0;  ///< virtual end-to-end latency (0 when shed)
};

/// Per-model serving statistics, BatchSummary-style.
struct ModelStats {
  std::string model;
  int requests = 0;
  int ok = 0;
  int shed = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;
  /// Nearest-rank percentiles of Ok requests' virtual end-to-end latency.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Largest admission-queue depth observed at this model's arrivals.
  int max_queue_depth = 0;
};

/// Everything one run() produced: per-request results (submission order)
/// plus the aggregate and per-model accounting. The accounting invariant —
/// ok + shed + deadline_exceeded + failed == requests — is the "zero lost
/// requests" contract.
struct ServerSummary {
  std::vector<RequestResult> results;

  int requests = 0;
  int ok = 0;
  int shed = 0;
  int deadline_exceeded = 0;
  int failed = 0;
  int retries = 0;

  int swaps = 0;            ///< scheduled swaps that committed
  int swap_rollbacks = 0;   ///< scheduled swaps that failed load and rolled back
  int max_queue_depth = 0;  ///< largest admission-queue depth observed

  double wall_ms = 0.0;  ///< real host wall time of the whole run

  std::vector<ModelStats> models;  ///< one entry per model seen in the trace
};

/// Serving configuration. `lanes` is the SIMULATED service concurrency the
/// admission/deadline decisions run against — it is deliberately separate
/// from `exec_workers` (the real threads forwards execute on) so that
/// changing real parallelism never changes a single admission verdict.
struct ServerConfig {
  int exec_workers = 4;  ///< real execution threads per model runner
  int lanes = 4;         ///< simulated service lanes (decision concurrency)
  /// Admission watermark: a request arriving while this many admitted
  /// requests are still waiting (not yet dispatched to a lane) is shed —
  /// reject-newest, the arriving request gets StatusCode::kShed.
  int queue_limit = 8;
  int max_retries = 2;            ///< retry budget per request
  double retry_backoff_ms = 0.25; ///< virtual backoff added before a retry
  double default_deadline_ms = 0.0;  ///< 0 = requests have no deadline
};

/// The multi-model serving control plane. One server fronts one Engine;
/// load_model/swap_model manage the artifact repository (thread-safe, also
/// against a concurrent run()), run() serves a workload trace.
class ModelServer {
 public:
  explicit ModelServer(core::Engine& engine, ServerConfig config = {},
                       FaultPlan faults = {}, std::string name = {});

  /// Loads the .pba at `path` into the repository as `name` (version 1).
  /// Subject to FaultPlan::artifact_load_fails and the engine's device
  /// validation — on any failure the model is NOT registered and the
  /// exception escapes. Re-loading an existing name throws (use swap).
  void load_model(const std::string& name, const std::string& path);

  /// Atomic hot-swap: load + validate the artifact at `path`, then replace
  /// `name`'s entry (version + 1). On load failure the exception escapes
  /// and the OLD artifact keeps serving — a swap is all-or-nothing.
  /// In-flight requests hold their dispatch-time artifact and finish on it.
  void swap_model(const std::string& name, const std::string& path);

  /// Current version of `name` (1 = initial load), 0 if not loaded.
  std::uint64_t version(const std::string& name) const;

  /// Loaded model names, in load order.
  std::vector<std::string> models() const;

  /// Serves a workload trace: deterministic admission/deadline/retry
  /// decisions in virtual time, then parallel execution of the admitted
  /// requests. `swaps` schedules hot-swaps at virtual timestamps inside
  /// the trace. One run() at a time per server (concurrent calls throw,
  /// naming the server); swap_model from OTHER threads stays legal and
  /// applies from the next run.
  ServerSummary run(std::vector<Request> workload,
                    std::vector<SwapEvent> swaps = {});

  /// Serves a workload trace through a model CASCADE (cascade.hpp,
  /// DESIGN.md §13): each request walks `spec`'s stages in order, every
  /// stage consuming the request's ORIGINAL input; a stage's gate decides
  /// whether the next stage runs. Stage decisions use the same virtual-time
  /// machinery as run() — per-stage shed/deadline/retry counts are
  /// bit-identical across exec_workers — and a request's deadline budget
  /// spans ALL its stages, measured from its original arrival. `swaps`
  /// schedules per-stage hot-swaps at virtual timestamps: a stage resolves
  /// its artifact at dispatch, so one stage swapping never drains the
  /// cascade. Requests' `model` fields are ignored (the spec routes).
  CascadeSummary run_cascade(const CascadeSpec& spec,
                             std::vector<Request> workload,
                             std::vector<SwapEvent> swaps = {});

  const ServerConfig& config() const noexcept { return config_; }
  const FaultPlan& faults() const noexcept { return scheduler_.faults(); }
  const std::string& name() const noexcept { return name_; }

 private:
  const ServerConfig config_;
  const std::string name_;
  Scheduler scheduler_;
};

}  // namespace phonebit::serve
