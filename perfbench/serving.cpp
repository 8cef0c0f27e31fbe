// perfbench — reference replays and determinism fingerprints shared by the
// fleet-quicknet and cascade-server workloads.
#include "serving.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using namespace phonebit;

Replayer::Replayer(const oclsim::DeviceProfile& profile,
                   const std::string& pba_path)
    : device_(std::make_shared<oclsim::Device>(profile,
                                               std::max(1, nproc() - 1))),
      engine_(device_),
      art_(engine_.load_artifact_shared(pba_path)),
      session_(std::make_unique<core::ExecSession>(engine_.create_session())),
      layers_(&art_->plan) {}

const core::Blob& Replayer::ref(std::size_t idx, const core::Blob& input,
                                Tracer* tracer) {
  const auto it = refs_.find(idx);
  if (it != refs_.end()) return it->second;
  if (!warm_) {
    (void)art_->plan.run(*session_, input);  // grows the session arena once
    warm_ = true;
  }
  session_->reset_profile();
  int span = -1;
  if (tracer != nullptr) {
    span = tracer->open("ExecutionPlan::run (reference)", -1,
                        static_cast<std::int64_t>(idx));
  }
  const double c0 = cpu_ms();
  const double t0 = now_ms();
  core::ForwardResult r = art_->plan.run(*session_, input);
  const double wall = now_ms() - t0;
  cpus_.push_back(cpu_ms() - c0);
  if (tracer != nullptr) {
    tracer->close(span);
    tracer->attach_report(span, r);
  }
  walls_.push_back(wall);
  modeled_.push_back(r.modeled_ms);
  layers_.add(r, wall);
  return refs_.emplace(idx, std::move(r.output)).first->second;
}

void guard(Measurement& m, const Fingerprint& first, const Fingerprint& now,
           const std::string& what) {
  if (!(first == now)) {
    m.errors.push_back(what + ": virtual-time outcome is not bit-identical");
  }
}

bool rung_passes(const std::string& workload, double rps,
                 const ServeOutcome& o, double limit_ms) {
  const double p99 = pct(o.ok_latency, 99.0);
  const bool pass = o.shed == 0 && o.deadline_exceeded == 0 && p99 < limit_ms;
  std::printf("ladder %s %.0f req/s: ok %d shed %d deadline %d p99 %.3f "
              "ms-virtual -> %s\n",
              workload.c_str(), rps, o.ok, o.shed, o.deadline_exceeded, p99,
              pass ? "meets the limit" : "misses the limit");
  return pass;
}

void fill_serving_metrics(Measurement& m, const std::string& workload,
                          const ServeOutcome& o, int mismatches,
                          const NominalTimes& t, bool traced) {
  m.e2e["throughput_rps"] = median(t.wall_rps);
  m.e2e["vlatency_ms_p50"] = pct(o.ok_latency, 50.0);
  m.e2e["vlatency_ms_p99"] = pct(o.ok_latency, 99.0);
  m.e2e["ok_share"] = static_cast<double>(o.ok - mismatches) /
                      static_cast<double>(o.requests);
  m.e2e["device_mem_mb"] = static_cast<double>(t.warm_bytes) / 1e6;
  const auto reps = static_cast<std::int64_t>(t.wall_rps.size());
  const auto ok = static_cast<std::int64_t>(o.ok_latency.size());
  m.samples["throughput_rps"] = reps;
  m.samples["vlatency_ms_p50"] = ok;
  m.samples["vlatency_ms_p99"] = ok;
  m.samples["ok_share"] = o.requests;
  m.samples["device_mem_mb"] = 1;
  // The trace is sized for >= 10 Ok samples above p99. A change that drops
  // Ok below that still gets its numbers; the thin tail is said here.
  const std::int64_t tail = above_pct(o.ok_latency.size(), 99.0);
  if (tail < 10) {
    std::printf("%s: only %lld Ok samples lie above vlatency_ms_p99\n",
                workload.c_str(), static_cast<long long>(tail));
  }

  m.layer["serve.exec_parallelism"] = median(t.parallelism);
  m.layer["serve.shed"] = o.shed;
  m.layer["serve.deadline_exceeded"] = o.deadline_exceeded;
  m.layer["serve.retries"] = o.retries;
  m.layer["serve.queue_ms_p99"] = pct(o.ok_queue, 99.0);
  if (traced) {
    m.layer["serve.overhead_ms"] = median(t.overhead);
    m.samples["serve.overhead_ms"] =
        static_cast<std::int64_t>(t.overhead.size());
  }
}

void fill_replay_metrics(Measurement& m, Replayer& sd855,
                         const std::vector<std::unique_ptr<Replayer>>& all,
                         const std::vector<core::Blob>& inputs,
                         const std::string& title) {
  // A quicknet replay is a few ms, so it can land wholly in a fast or a slow
  // phase of a shared host; the CPU metrics use the mean of each block of
  // consecutive replays. kMinReplays blocks leave 10 above p90.
  constexpr std::size_t kBlock = 10;
  constexpr std::size_t kMinReplays = 100 * kBlock;
  auto replayed = [&all] {
    std::size_t n = 0;
    for (const auto& r : all) n += r->cpus().size();
    return n;
  };
  for (std::size_t i = 0; i < inputs.size() && replayed() < kMinReplays;
       ++i) {
    (void)sd855.ref(i, inputs[i], nullptr);
  }
  std::vector<double> cpus, walls, block_cpu;
  for (const auto& r : all) {
    cpus.insert(cpus.end(), r->cpus().begin(), r->cpus().end());
    walls.insert(walls.end(), r->walls().begin(), r->walls().end());
  }
  for (std::size_t b = 0; b + kBlock <= cpus.size(); b += kBlock) {
    double sum = 0.0;
    for (std::size_t k = b; k < b + kBlock; ++k) sum += cpus[k];
    block_cpu.push_back(sum / static_cast<double>(kBlock));
  }
  fill_forward_times(m, block_cpu, walls, title);
  for (const double v : sd855.modeled()) {
    if (v != sd855.modeled().front()) {
      m.errors.push_back(title + ": modeled time differs between replays");
      break;
    }
  }
  const energy::PowerReport power =
      energy::estimate_power(sd855.events(), sd855.profile());
  m.e2e["modeled_ms"] = sd855.modeled().front();
  m.e2e["energy_mj"] = power.energy_mj_per_frame;
  m.samples["modeled_ms"] = static_cast<std::int64_t>(sd855.modeled().size());
  m.samples["energy_mj"] = 1;
  m.layer["energy.avg_power_mw"] = power.avg_power_mw;
  m.layer["oclsim.launches_per_forward"] =
      static_cast<double>(sd855.events().size());
  sd855.layers().fill(m);
  sd855.layers().calibration(m, title);
  fill_memory(m, sd855.artifact().plan, *sd855.artifact().network);
}

}  // namespace perfbench
