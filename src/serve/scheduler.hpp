// PhoneBit serve — the one virtual-time stage walk behind every serving
// entry point.
//
// ModelServer (one shard over a borrowed Engine) and FleetServer (one
// shard per simulated phone) are thin callers of a Scheduler. It owns the
// per-shard artifact repositories, the probe sessions with their
// modeled-cost cache, and the walk (DESIGN.md §9):
//
//   - a trace walks a linear list of STAGES: a plain run() is one stage
//     routed by Request::model, a cascade is its CascadeSpec's stages;
//   - each stage is one round. First every decision, in (stage arrival,
//     submission) order, in VIRTUAL time: the candidate shards (those
//     serving the stage's model at the request's shape — a request no
//     shard can serve fails before admission and holds no queue slot),
//     placement by modeled cost plus lane wait with spill past full
//     shards, shed when every candidate is full, the deadline at dispatch
//     and the retry loop (simulate_attempts). Then the Ok requests run,
//     grouped per model version, through each version's BatchRunner on
//     borrowed inputs. Then the stage gates decide who advances;
//   - scheduled swaps commit at walk start, in time order, and every
//     decision resolves its artifact at its own virtual time from the
//     resulting per-model timeline. A swap made from another thread while
//     a walk runs applies from the next walk.
//
// Every verdict is therefore a pure function of (trace, config, faults):
// the same inputs give bit-identical accounting at any real worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "oclsim/runtime.hpp"
#include "serve/batch_runner.hpp"
#include "serve/cascade.hpp"
#include "serve/fault.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

/// One request of a workload trace: which model, what input, when it
/// arrives (virtual ms since trace start) and how long it is willing to
/// wait end-to-end (0 = use the server's default_deadline_ms; negative =
/// explicitly no deadline).
struct Request {
  std::string model;
  core::Blob input;
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;
};

/// A scheduled hot-swap inside a trace: from virtual time `at_ms` on,
/// `model` serves the artifact at `path` (subject to load validation and
/// FaultPlan::artifact_load_fails — a failed load rolls back).
struct SwapEvent {
  double at_ms = 0.0;
  std::string model;
  std::string path;
};

/// The decision knobs of a walk; ServerConfig and FleetConfig map onto it.
struct SchedulerConfig {
  int exec_workers = 4;  ///< real execution threads per model runner
  int lanes = 4;         ///< simulated service lanes per shard
  int queue_limit = 8;   ///< per-shard admission watermark (spill past it)
  int max_retries = 2;
  double retry_backoff_ms = 0.25;
  double default_deadline_ms = 0.0;  ///< 0 = requests have no deadline
  double wait_weight = 1.0;          ///< queue-wait term of the placement score
};

/// Virtual-time load of one shard over one walk.
struct ShardLoad {
  double busy_ms = 0.0;     ///< lane-occupancy total
  double end_ms = 0.0;      ///< latest lane-busy instant
  int max_queue_depth = 0;  ///< deepest admission queue seen at arrivals
};

/// Everything one walk produced. `summary` holds the per-request walks
/// (`results`, one StageOutcome per entered stage), `stage_assignment`,
/// the swap counters and `wall_ms`; its aggregate counters are left to
/// the caller's adapter.
struct WalkResult {
  CascadeSummary summary;
  std::vector<ShardLoad> shards;
  std::vector<int> queue_depth;  ///< per request: deepest queue it saw
};

/// Folds one request's outcome into an accounting record — ServerSummary,
/// ModelStats, FleetSummary or ShardStats; fields a record lacks are
/// skipped. Ok latencies are collected in `ok_ms` for close_percentiles.
template <class Stats>
void account(Stats& st, std::vector<double>& ok_ms, StatusCode code,
             int retries, double latency_ms) {
  ++st.requests;
  st.retries += retries;
  switch (code) {
    case StatusCode::kOk:
      ++st.ok;
      ok_ms.push_back(latency_ms);
      if constexpr (requires { st.max_ms; }) {
        st.max_ms = std::max(st.max_ms, latency_ms);
      }
      break;
    case StatusCode::kShed:
      if constexpr (requires { st.shed; }) ++st.shed;
      break;
    case StatusCode::kDeadlineExceeded:
      ++st.deadline_exceeded;
      break;
    case StatusCode::kFailed:
      ++st.failed;
      break;
  }
}

/// Nearest-rank p50/p99 of the Ok latencies account() collected.
template <class Stats>
void close_percentiles(Stats& st, std::vector<double>& ok_ms) {
  std::sort(ok_ms.begin(), ok_ms.end());
  st.p50_ms = percentile(ok_ms, 50.0);
  st.p99_ms = percentile(ok_ms, 99.0);
}

class Scheduler {
 public:
  /// `kind` and `name` label errors ("ModelServer 'x'") and runner tags.
  Scheduler(std::string kind, std::string name, SchedulerConfig config,
            FaultPlan faults);

  /// Adds a shard serving on `engine`, priced with `profile`. `label`
  /// names the shard in runner tags and errors ("" for a lone shard).
  /// Call before the first load; the engine must outlive the scheduler.
  void add_shard(core::Engine& engine, const oclsim::DeviceProfile& profile,
                 std::string label);

  int shard_count() const noexcept { return static_cast<int>(shards_.size()); }
  const FaultPlan& faults() const noexcept { return faults_; }

  /// Loads + validates `path` on `shard` as `model`, version 1. Every
  /// attempt consumes one load-sequence number for the fault plan; on any
  /// failure nothing is registered and the exception escapes.
  void load(int shard, const std::string& model, const std::string& path);

  /// Atomic hot-swap: loads + validates FIRST, then replaces the entry
  /// (version + 1, fresh runner). On failure the old version keeps serving.
  void swap(int shard, const std::string& model, const std::string& path);

  /// Current version of `model` on `shard`, 0 if absent.
  std::uint64_t version(int shard, const std::string& model) const;
  /// Models loaded on `shard`, in load order.
  std::vector<std::string> models(int shard) const;
  /// Distinct descriptors compiled by every runner so far.
  std::size_t compiled_plans() const;
  /// Arena growth events summed over every runner's sessions.
  int total_arena_growth_events() const;

  /// Walks `workload` (borrowed for the call) through `spec`'s stages, or
  /// through one stage routed by Request::model when `spec` is null.
  /// Swaps target shard 0. One walk at a time: a concurrent call throws.
  WalkResult walk(const CascadeSpec* spec, const std::vector<Request>& workload,
                  std::vector<SwapEvent> swaps);

 private:
  /// A repository entry, or a snapshot of one (artifact null = absent).
  /// Runners are shared so a swap can replace an entry while a walk still
  /// executes on the old version.
  struct Snapshot {
    std::shared_ptr<const artifact::LoadedArtifact> artifact;
    std::shared_ptr<BatchRunner> runner;
    std::uint64_t version = 0;
  };
  struct Entry {
    std::string model;
    Snapshot snap;
  };
  struct Shard {
    core::Engine* engine = nullptr;
    oclsim::DeviceProfile profile;
    std::string label;
    std::vector<Entry> repo;
    std::unique_ptr<core::ExecSession> probe;  ///< minted on first probe
  };
  /// Modeled cost of one (plan, input shape) on every shard: one probe
  /// forward's event log replayed per profile (DESIGN.md §10). `reuse_ms`
  /// prices the split-skipped path of a cache-active plan; it is probed
  /// only when a request holding filled planes is first priced.
  struct Price {
    const void* plan = nullptr;
    core::BlobDesc desc{};
    bool cache_active = false;
    std::vector<double> plain_ms;
    std::vector<double> reuse_ms;
  };

  Shard& shard_at(int shard);
  const Shard& shard_at(int shard) const;
  /// Index of `model`'s entry in `s.repo`, -1 if absent. Caller holds mu_.
  static int find(const Shard& s, const std::string& model);
  Snapshot snapshot(int shard, const std::string& model) const;
  /// swap(), returning the entry it committed.
  Snapshot commit_swap(int shard, const std::string& model,
                       const std::string& path);
  std::shared_ptr<BatchRunner> make_runner(
      const Shard& s, const std::string& model, std::uint64_t version,
      std::shared_ptr<const artifact::LoadedArtifact> art) const;
  std::shared_ptr<const artifact::LoadedArtifact> checked_load(
      const Shard& s, const std::string& path);
  const Price& price(int shard, const Snapshot& snap, const core::Blob& input,
                     bool with_reuse);

  const std::string who_;
  const std::string name_;
  const SchedulerConfig config_;
  const FaultPlan faults_;

  std::vector<Shard> shards_;
  mutable std::mutex mu_;       ///< guards every shard's repo and load_seq_
  std::uint64_t load_seq_ = 0;  ///< load attempts so far (fault keying)

  /// Walk-thread only (guarded by the one-walk-at-a-time contract);
  /// a deque so references survive later insertions.
  std::deque<Price> prices_;
  std::atomic<bool> running_{false};
};

}  // namespace phonebit::serve
