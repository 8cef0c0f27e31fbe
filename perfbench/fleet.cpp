// perfbench workload fleet-quicknet — an open loop in virtual time:
// quicknet 32x32 requests arrive on a fixed schedule at a nominal rate above
// the flagship's capacity and go to a FleetServer of sd855/sd660/sd625
// shards with per-request deadlines and a seeded FaultPlan. A small model
// (8 launches per forward) is where dispatch, allocation and plan-walk
// overhead matter, and the only workload where placement, spillover,
// shedding and retries decide the outcome.
#include <algorithm>
#include <cstdio>

#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/fleet.hpp"
#include "serving.hpp"

namespace perfbench {

using namespace phonebit;

namespace {

const std::vector<std::string> kProfiles = {"sd855", "sd660", "sd625"};
constexpr int kSetupReps = 25;
constexpr int kMinReps = 3;  // the traced pass runs one
constexpr std::size_t kRequests = 1100;  // >= 1000 Ok at the nominal rate
constexpr std::size_t kCheckedOneWorker = kRequests / 4;
constexpr double kNominalRps = 5000.0;   // sd855 alone serves ~3500
constexpr double kDeadlineMs = 12.0;
// The fault schedule is part of the workload, like the arrival schedule:
// fixed, so only the inputs vary with the seed.
constexpr std::uint64_t kFaultSeed = 0xF1EE7;
// Capacity ladder (virtual req/s), scanned down from the nominal rate.
const std::vector<double> kLadder = {4000.0, 4250.0, 4500.0, 4750.0,
                                     kNominalRps};

serve::FleetConfig fleet_config(int exec_workers) {
  serve::FleetConfig cfg;
  for (const std::string& key : kProfiles) {
    cfg.shards.push_back(serve::ShardSpec{std::string{}, key, 1});
  }
  cfg.exec_workers = exec_workers;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 4;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  return cfg;
}

// The first `count` inputs arriving every 1/rps seconds.
std::vector<serve::Request> make_trace(const std::vector<core::Blob>& inputs,
                                       double rps, std::size_t count) {
  std::vector<serve::Request> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    serve::Request r;
    r.model = "quicknet";
    r.input = inputs[i];
    r.arrival_ms = static_cast<double>(i) * 1e3 / rps;
    r.deadline_ms = kDeadlineMs;
    trace.push_back(std::move(r));
  }
  return trace;
}

// Per-request decisions of results [0, count).
Fingerprint request_fingerprint(const serve::FleetSummary& s,
                                std::size_t count) {
  Fingerprint f;
  for (std::size_t i = 0; i < count && i < s.results.size(); ++i) {
    const serve::FleetRequestResult& r = s.results[i];
    f.add(static_cast<int>(r.status.code));
    f.add(r.shard);
    f.add(r.spillovers);
    f.add(r.attempts);
    f.add(r.retries);
    f.add(r.plan_version);
    f.add(r.queue_ms);
    f.add(r.latency_ms);
  }
  return f;
}

Fingerprint fingerprint(const serve::FleetSummary& s) {
  Fingerprint f = request_fingerprint(s, s.results.size());
  for (const int v : {s.requests, s.ok, s.shed, s.deadline_exceeded, s.failed,
                      s.retries, s.spillovers}) {
    f.add(v);
  }
  f.add(s.makespan_ms);
  for (const serve::ShardStats& st : s.shards) {
    for (const int v : {st.requests, st.ok, st.deadline_exceeded, st.failed,
                        st.retries, st.max_queue_depth}) {
      f.add(v);
    }
    for (const double v : {st.busy_ms, st.utilization, st.p50_ms, st.p99_ms,
                           st.max_ms}) {
      f.add(v);
    }
  }
  return f;
}

ServeOutcome outcome(const serve::FleetSummary& s) {
  ServeOutcome o{s.requests, s.ok, s.shed, s.deadline_exceeded, s.retries};
  for (const serve::FleetRequestResult& r : s.results) {
    if (!r.status.ok()) continue;
    o.ok_latency.push_back(r.latency_ms);
    o.ok_queue.push_back(r.queue_ms);
    o.ok_host_ms += r.result.host_ms;
  }
  return o;
}

}  // namespace

Measurement run_fleet_quicknet(const Args& args, Tracer* tracer) {
  Measurement m;
  // Shard phases run one after another: per shard, 1 device thread plus
  // the exec workers plus the caller stay within nproc.
  const int exec_workers = std::max(1, nproc() - 2);
  m.env = Env{nproc(), 1, static_cast<int>(kProfiles.size()), exec_workers,
              args.seed};

  // Benchmark input generation: excluded from every timing.
  const core::NetworkSpec spec = models::quicknet();
  const core::FloatModel trained = core::FloatModel::random(spec, args.seed);
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  std::vector<core::Blob> inputs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    inputs.emplace_back(datasets::cifar_like_image(mix(args.seed, 100 + i)));
  }
  serve::FaultPlan faults;
  faults.seed = kFaultSeed;
  faults.transient_rate = 0.05;
  faults.spike_rate = 0.05;
  faults.spike_ms = 2.0;
  std::vector<std::string> paths;
  for (const std::string& key : kProfiles) {
    paths.push_back(args.work_dir + "/fleet-quicknet." + key + ".pba");
  }

  // Setup: trained model -> first served result through the fleet.
  std::vector<SetupSample> setup;
  std::unique_ptr<serve::FleetServer> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    fleet = std::make_unique<serve::FleetServer>(
        fleet_config(exec_workers), faults, "fleet-quicknet");
    SetupSample s;
    SpanGuard root(tracer, "setup", -1, rep);
    const double c0 = cpu_ms();
    const double t0 = now_ms();
    std::unique_ptr<core::Network> net;
    {
      SpanGuard span(tracer, "core::convert_to_phonebit", root.id(), rep);
      net = core::convert_to_phonebit(trained);
    }
    const double t1 = now_ms();
    std::vector<core::ExecutionPlan> plans;
    {
      SpanGuard span(tracer, "Network::compile x3", root.id(), rep);
      for (std::size_t i = 0; i < kProfiles.size(); ++i) {
        plans.push_back(net->compile(core::EngineOptions{}, desc));
      }
    }
    const double t2 = now_ms();
    {
      SpanGuard span(tracer, "artifact::save x3", root.id(), rep);
      for (std::size_t i = 0; i < kProfiles.size(); ++i) {
        artifact::save(*net, plans[i], paths[i], kProfiles[i]);
      }
    }
    const double t3 = now_ms();
    {
      SpanGuard span(tracer, "FleetServer::load_model", root.id(), rep);
      fleet->load_model("quicknet", paths);
    }
    const double t4 = now_ms();
    {
      SpanGuard span(tracer, "FleetServer::run (first request)", root.id(),
                     rep);
      std::vector<serve::Request> one;
      one.push_back(serve::Request{"quicknet", inputs.front(), 0.0, 0.0});
      (void)fleet->run(std::move(one));
    }
    const double t5 = now_ms();
    s.convert_ms = t1 - t0;
    s.compile_ms = t2 - t1;
    s.save_ms = t3 - t2;
    s.load_ms = t4 - t3;
    s.first_forward_ms = t5 - t4;
    s.total_ms = t5 - t0;
    s.total_cpu_ms = cpu_ms() - c0;
    setup.push_back(s);
  }
  fill_setup(m, setup);
  phase(m, "setup");

  std::vector<std::unique_ptr<Replayer>> replay;
  for (std::size_t i = 0; i < kProfiles.size(); ++i) {
    replay.push_back(std::make_unique<Replayer>(
        oclsim::profile_by_name(kProfiles[i]), paths[i]));
  }
  // Every Ok output must equal a standalone run of the shard's artifact.
  // Ladder rates are checked against the references the nominal runs
  // already replayed (`replay_missing` false), so they add no forwards.
  auto check_outputs = [&](const serve::FleetSummary& s,
                           const std::string& what, bool replay_missing) {
    int bad = 0;
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      const serve::FleetRequestResult& r = s.results[i];
      if (!r.status.ok()) continue;
      Replayer& rp = *replay[static_cast<std::size_t>(r.shard)];
      const core::Blob* ref =
          replay_missing ? &rp.ref(i, inputs[i], tracer) : rp.find(i);
      if (ref != nullptr && !same_output(*ref, r.result.output)) {
        ++bad;
        mismatch(m, what + " request " + std::to_string(i));
      }
    }
    if (s.ok + s.shed + s.deadline_exceeded + s.failed != s.requests) {
      mismatch(m, what + ": ok + shed + deadline_exceeded + failed != "
                         "requests");
    }
    m.attempted += s.requests;
    return bad;
  };
  auto device_bytes = [&fleet] {
    std::int64_t total = 0;
    for (int i = 0; i < fleet->shard_count(); ++i) {
      total += fleet->engine(i).device().allocated_bytes();
    }
    return total;
  };

  // Serving overhead (traced pass only): each nominal rep is followed by a
  // replay of its Ok inputs through BatchRunner::run, one runner per shard
  // on its own engine of the shard's profile and thread count.
  struct ShardReplay {
    std::shared_ptr<oclsim::Device> device;
    std::unique_ptr<core::Engine> engine;
    std::unique_ptr<serve::BatchRunner> runner;
  };
  std::vector<ShardReplay> batch_replay;
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < kProfiles.size(); ++i) {
      ShardReplay r;
      r.device = std::make_shared<oclsim::Device>(
          oclsim::profile_by_name(kProfiles[i]), 1);
      r.engine = std::make_unique<core::Engine>(r.device);
      r.runner = std::make_unique<serve::BatchRunner>(
          *r.engine, r.engine->load_artifact_shared(paths[i]), exec_workers);
      batch_replay.push_back(std::move(r));
    }
  }
  auto replay_serving = [&](const serve::FleetSummary& s, int rep) {
    std::vector<std::vector<core::Blob>> per_shard(kProfiles.size());
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      if (s.results[i].status.ok()) {
        per_shard[static_cast<std::size_t>(s.results[i].shard)].push_back(
            inputs[i]);
      }
    }
    SpanGuard span(tracer, "BatchRunner::run x3 (serving replay)", -1, rep);
    const double t0 = now_ms();
    for (std::size_t i = 0; i < batch_replay.size(); ++i) {
      if (!per_shard[i].empty()) {
        (void)batch_replay[i].runner->run(std::move(per_shard[i]));
      }
    }
    return now_ms() - t0;
  };

  // Nominal rate, repeated for the run's seconds; checked afterwards.
  NominalTimes times;
  const std::vector<serve::FleetSummary> reps =
      serve_nominal<serve::FleetSummary>(
          m, times, args.seconds, tracer != nullptr ? 1 : kMinReps,
          [&](int rep) {
            return [&, rep, trace = make_trace(inputs, kNominalRps,
                                               kRequests)]() mutable {
              SpanGuard span(tracer, "FleetServer::run", -1, rep);
              return fleet->run(std::move(trace));
            };
          },
          outcome, device_bytes,
          tracer != nullptr ? &replay_serving : nullptr);
  phase(m, "timed");
  const serve::FleetSummary& first = reps.front();
  const Fingerprint first_fp = fingerprint(first);
  const int mismatches_first =
      check_outputs(first, "fleet nominal rep 0", true);
  for (std::size_t k = 1; k < reps.size(); ++k) {
    const std::string what = "fleet nominal rep " + std::to_string(k);
    check_outputs(reps[k], what, true);
    guard(m, first_fp, fingerprint(reps[k]), what);
  }
  phase(m, "check");
  // The traced pass skips the 1-worker rerun and the capacity ladder:
  // both are virtual-time outcomes, which tracing cannot change.
  if (tracer == nullptr) {
    // At 1 exec worker the trace must decide exactly the same. A request's
    // verdict depends only on earlier arrivals, so the first quarter of the
    // trace reproduces the nominal run's first quarter request by request.
    {
      serve::FleetServer one(fleet_config(1), faults, "fleet-quicknet-1w");
      one.load_model("quicknet", paths);
      const serve::FleetSummary s =
          one.run(make_trace(inputs, kNominalRps, kCheckedOneWorker));
      check_outputs(s, "fleet 1 worker", true);
      guard(m, request_fingerprint(first, kCheckedOneWorker),
            request_fingerprint(s, kCheckedOneWorker),
            "fleet at 1 exec worker");
    }
    phase(m, "one-worker");
    scan_ladder(m, "fleet-quicknet", kLadder, args.fleet_limit_ms,
                [&](double rps) {
                  if (rps == kNominalRps) return outcome(first);
                  const serve::FleetSummary s =
                      fleet->run(make_trace(inputs, rps, kRequests));
                  check_outputs(s, "fleet ladder " + std::to_string(rps),
                                false);
                  return outcome(s);
                });
    phase(m, "ladder");
  }
  const serve::FleetSummary& s = first;
  fill_serving_metrics(m, "fleet-quicknet", outcome(s), mismatches_first,
                       times, tracer != nullptr);
  fill_replay_metrics(m, *replay[0], replay, inputs, "fleet-quicknet on sd855");
  m.layer["serve.spillovers"] = s.spillovers;
  for (const serve::ShardStats& st : s.shards) {
    m.layer["serve.shard." + st.profile + ".requests"] = st.requests;
    m.layer["serve.shard." + st.profile + ".utilization"] = st.utilization;
  }

  if (tracer != nullptr) {
    std::vector<const U8Tensor*> imgs;
    for (std::size_t i = 0; i < 8; ++i) {
      imgs.push_back(&std::get<U8Tensor>(inputs[i]));
    }
    Replayer& sd855 = *replay[0];
    traced_probes(m, sd855.artifact().plan, sd855.session(), inputs.front(),
                  fleet->engine(0).device(), imgs, tracer);
  }
  phase(m, "probes");
  return m;
}

}  // namespace perfbench
