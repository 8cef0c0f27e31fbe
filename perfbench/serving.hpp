// perfbench — pieces the two serving workloads share: standalone reference
// replays (the output check and the single-forward latency samples) and the
// exact fingerprint the determinism guard compares.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "energy/power_model.hpp"

namespace perfbench {

/// Standalone ExecutionPlan::run of one artifact on a private device of the
/// artifact's profile with nproc - 1 threads (+ the caller): the reference
/// every served output is compared against. Each input is replayed once
/// (warm session, timed); these are the workload's single-stream forward
/// time samples.
class Replayer {
 public:
  Replayer(const phonebit::oclsim::DeviceProfile& profile,
           const std::string& pba_path);
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Reference output for workload input `idx` (replayed on first use).
  const phonebit::core::Blob& ref(std::size_t idx,
                                  const phonebit::core::Blob& input,
                                  Tracer* tracer);

  /// Reference output for `idx` if it was already replayed, else null.
  const phonebit::core::Blob* find(std::size_t idx) const {
    const auto it = refs_.find(idx);
    return it != refs_.end() ? &it->second : nullptr;
  }

  const phonebit::artifact::LoadedArtifact& artifact() const { return *art_; }
  phonebit::core::ExecSession& session() { return *session_; }
  const std::vector<double>& walls() const noexcept { return walls_; }
  const std::vector<double>& cpus() const noexcept { return cpus_; }
  const std::vector<double>& modeled() const noexcept { return modeled_; }
  const LayerStats& layers() const noexcept { return layers_; }
  /// Kernel events of the latest replay (one warm forward).
  const std::vector<phonebit::oclsim::KernelEvent>& events() const {
    return session_->queue().events();
  }
  const phonebit::oclsim::DeviceProfile& profile() const {
    return device_->profile();
  }

 private:
  std::shared_ptr<phonebit::oclsim::Device> device_;
  phonebit::core::Engine engine_;
  std::shared_ptr<const phonebit::artifact::LoadedArtifact> art_;
  std::unique_ptr<phonebit::core::ExecSession> session_;
  LayerStats layers_;
  bool warm_ = false;
  std::map<std::size_t, phonebit::core::Blob> refs_;
  std::vector<double> walls_;
  std::vector<double> cpus_;  ///< process CPU ms per replay
  std::vector<double> modeled_;
};

/// Exact fingerprint of a serving outcome: every virtual-time decision,
/// count and latency, doubles compared bit for bit.
class Fingerprint {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    words_.push_back(bits);
  }
  void add(std::int64_t v) { words_.push_back(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(std::uint64_t v) { words_.push_back(v); }
  void add(bool v) { words_.push_back(v ? 1u : 0u); }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

 private:
  std::vector<std::uint64_t> words_;
};

/// Checks a fingerprint against the run's first one; a mismatch is a
/// determinism error, never a number.
void guard(Measurement& m, const Fingerprint& first, const Fingerprint& now,
           const std::string& what);

/// Outcome of one serving call, as the shared metrics need it.
struct ServeOutcome {
  int requests = 0, ok = 0, shed = 0, deadline_exceeded = 0, retries = 0;
  std::vector<double> ok_latency;  ///< virtual end-to-end ms of Ok requests
  std::vector<double> ok_queue;    ///< virtual queue ms of Ok requests
  double ok_host_ms = 0.0;         ///< sum of the Ok forwards' host ms
};

/// Prints one capacity-ladder rate and says whether it meets the limit:
/// nothing shed or past its deadline, and the Ok p99 under `limit_ms`.
bool rung_passes(const std::string& workload, double rps,
                 const ServeOutcome& o, double limit_ms);

/// Capacity: runs the `ladder` rates (ascending) from the highest down;
/// `run_at(rps)` serves the trace at that rate and returns its outcome.
/// Writes capacity_rps, the first rate that meets the limit. When no rate
/// meets it, capacity_rps is the lowest rate, a floor, and a line says so.
template <class RunAt>
void scan_ladder(Measurement& m, const std::string& workload,
                 const std::vector<double>& ladder, double limit_ms,
                 RunAt run_at) {
  int rungs = 0;
  double capacity = 0.0;
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    ++rungs;
    if (rung_passes(workload, *it, run_at(*it), limit_ms)) {
      capacity = *it;
      break;
    }
  }
  if (capacity == 0.0) {
    capacity = ladder.front();
    std::printf("ladder %s: no rate meets the limit; capacity_rps reports "
                "the lowest rate, %.0f req/s, as a floor\n",
                workload.c_str(), capacity);
  }
  m.e2e["capacity_rps"] = capacity;
  m.samples["capacity_rps"] = rungs;
}

/// Per-rep host figures of the nominal serving calls.
struct NominalTimes {
  std::vector<double> wall_rps;     ///< Ok ÷ wall seconds of the call
  std::vector<double> parallelism;  ///< Ok forwards' host ms ÷ call wall
  std::vector<double> overhead;     ///< call wall − BatchRunner replay wall
  std::int64_t warm_bytes = 0;      ///< device bytes after the first rep
};

/// Serves the nominal trace at least `min_reps` times and until `seconds`
/// have passed, timing each call on the wall clock. `prepare(rep)` builds
/// the rep's call untimed (its trace, and its server if it needs a fresh
/// one) and returns it; the call returns the serve summary, which
/// `outcome(summary)` reads. After the first rep the device bytes
/// (`device_bytes()`) must not move. When `replay` is set (traced pass),
/// `(*replay)(summary, rep)` returns the wall ms of replaying the call's
/// executed inputs through BatchRunner::run.
template <class Summary, class Prepare, class Outcome, class Bytes,
          class Replay>
std::vector<Summary> serve_nominal(Measurement& m, NominalTimes& t,
                                   double seconds, int min_reps,
                                   Prepare prepare, Outcome outcome,
                                   Bytes device_bytes, Replay* replay) {
  std::vector<Summary> reps;
  const double loop0 = now_ms();
  for (int rep = 0; rep < min_reps || now_ms() - loop0 < seconds * 1e3;
       ++rep) {
    auto call = prepare(rep);
    const double t0 = now_ms();
    Summary s = call();
    const double wall = now_ms() - t0;
    const ServeOutcome o = outcome(s);
    t.wall_rps.push_back(static_cast<double>(o.ok) / (wall / 1e3));
    t.parallelism.push_back(o.ok_host_ms / wall);
    if (rep == 0) {
      t.warm_bytes = device_bytes();
    } else if (device_bytes() != t.warm_bytes) {
      m.errors.push_back("device bytes moved after warm-up");
    }
    if (replay != nullptr) t.overhead.push_back(wall - (*replay)(s, rep));
    reps.push_back(std::move(s));
  }
  return reps;
}

/// Writes the serving workloads' shared metrics from the first nominal
/// rep's outcome `o` (`mismatches` of its Ok outputs differ from their
/// references) and the per-rep host times.
void fill_serving_metrics(Measurement& m, const std::string& workload,
                          const ServeOutcome& o, int mismatches,
                          const NominalTimes& t, bool traced);

/// Shared tail of both serving workloads: per-forward times of every
/// replay in `all`, and modeled, energy and per-layer metrics of the sd855
/// reference replays. When fewer than kMinReplays were made (few requests
/// Ok), `sd855` replays further `inputs` first, so the CPU metrics keep
/// their sample count whatever the serving outcome.
void fill_replay_metrics(
    Measurement& m, Replayer& sd855,
    const std::vector<std::unique_ptr<Replayer>>& all,
    const std::vector<phonebit::core::Blob>& inputs,
    const std::string& title);

}  // namespace perfbench
