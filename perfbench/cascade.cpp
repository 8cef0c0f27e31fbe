// perfbench workload cascade-server — ModelServer::run_cascade over a
// det->cls pair of quicknet weight sets on one SD855 engine. The gate
// threshold is the detector's median max-logit over the workload's inputs,
// so about half the requests stop after stage 0; one deadline covers the
// whole cascade and the cls stage is hot-swapped once mid-trace. It uses
// the serving layer differently from fleet-quicknet — multi-stage walks,
// gates, swap timelines and input-plane reuse that skips the split kernel
// on stage 1 — and runs through ModelServer rather than FleetServer.
#include <algorithm>
#include <cstdio>

#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/model_server.hpp"
#include "serving.hpp"

namespace perfbench {

using namespace phonebit;

namespace {

constexpr int kSetupReps = 25;
// One call takes seconds and its reps agree within a few percent.
constexpr int kMinReps = 2;  // the traced pass runs one
// The whole trace is one run_cascade call. The call decides every stage-0
// arrival before any stage-1 dispatch, so today nearly every request that
// passes the gate is shed at stage 1 and the Ok requests are about the
// gated-out half: 1100 requests leave about 530 Ok, about 5 of them above
// p99 (a line says so). Each request costs about seven forwards a run, and
// 2200 requests made a run take over a minute.
constexpr std::size_t kRequests = 1100;
constexpr double kNominalRps = 6000.0;
constexpr double kDeadlineMs = 10.0;
// The fault schedule is part of the workload, like the arrival schedule:
// fixed, so only the inputs (and through them the gate verdicts) vary with
// the seed.
constexpr std::uint64_t kFaultSeed = 0xCA5CADE;
// Capacity ladder (virtual req/s), scanned down from the nominal rate.
const std::vector<double> kLadder = {3000.0, 4500.0, kNominalRps};
// Artifacts: the detector, the classifier, and the classifier version the
// trace hot-swaps in.
const std::vector<std::string> kModels = {"det", "cls", "cls-v2"};

serve::ServerConfig server_config(int exec_workers) {
  serve::ServerConfig cfg;
  cfg.exec_workers = exec_workers;
  cfg.lanes = 4;
  cfg.queue_limit = 24;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  return cfg;
}

// Every input, arriving every 1/rps seconds.
std::vector<serve::Request> make_trace(const std::vector<core::Blob>& inputs,
                                       double rps) {
  std::vector<serve::Request> trace;
  trace.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    serve::Request r;
    r.input = inputs[i];
    r.arrival_ms = static_cast<double>(i) * 1e3 / rps;
    r.deadline_ms = kDeadlineMs;
    trace.push_back(std::move(r));
  }
  return trace;
}

Fingerprint fingerprint(const serve::CascadeSummary& s) {
  Fingerprint f;
  for (const serve::CascadeRequestResult& r : s.results) {
    f.add(static_cast<int>(r.status.code));
    f.add(r.gated_out);
    f.add(r.queue_ms);
    f.add(r.latency_ms);
    for (const serve::StageOutcome& so : r.stages) {
      f.add(static_cast<int>(so.status.code));
      f.add(so.attempts);
      f.add(so.retries);
      f.add(so.plan_version);
      f.add(so.reused_planes);
      f.add(so.gate_passed);
      f.add(so.queue_ms);
      f.add(so.latency_ms);
    }
  }
  for (const int v : {s.requests, s.ok, s.shed, s.deadline_exceeded, s.failed,
                      s.retries, s.gated_out, s.full_runs, s.swaps,
                      s.swap_rollbacks}) {
    f.add(v);
  }
  for (const serve::CascadeStageStats& st : s.stages) {
    for (const int v : {st.entered, st.ok, st.shed, st.deadline_exceeded,
                        st.failed, st.retries, st.gate_passed,
                        st.gate_stopped, st.reused_planes}) {
      f.add(v);
    }
    for (const double v : {st.p50_ms, st.p99_ms, st.max_ms}) f.add(v);
  }
  return f;
}

ServeOutcome outcome(const serve::CascadeSummary& s) {
  ServeOutcome o{s.requests, s.ok, s.shed, s.deadline_exceeded, s.retries};
  for (const serve::CascadeRequestResult& r : s.results) {
    if (!r.status.ok()) continue;
    o.ok_latency.push_back(r.latency_ms);
    o.ok_queue.push_back(r.queue_ms);
    o.ok_host_ms += r.result.host_ms;
  }
  return o;
}

float max_logit(const core::Blob& out) {
  const FloatTensor& f = std::get<FloatTensor>(out);
  return *std::max_element(f.data(), f.data() + f.elems());
}

}  // namespace

Measurement run_cascade_server(const Args& args, Tracer* tracer) {
  Measurement m;
  // Stages run one after another: 1 device thread plus the exec workers
  // plus the caller stay within nproc.
  const int exec_workers = std::max(1, nproc() - 2);
  m.env = Env{nproc(), 1, 1, exec_workers, args.seed};

  // Benchmark input generation: excluded from every timing.
  const core::NetworkSpec spec = models::quicknet();
  std::vector<core::FloatModel> trained;
  for (std::size_t k = 0; k < kModels.size(); ++k) {
    trained.push_back(core::FloatModel::random(spec, mix(args.seed, 1 + k)));
  }
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  std::vector<core::Blob> inputs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    inputs.emplace_back(datasets::cifar_like_image(mix(args.seed, 100 + i)));
  }
  serve::FaultPlan faults;
  faults.seed = kFaultSeed;
  faults.transient_rate = 0.05;
  faults.spike_rate = 0.05;
  faults.spike_ms = 1.5;
  std::vector<std::string> paths;
  for (const std::string& k : kModels) {
    paths.push_back(args.work_dir + "/cascade-server." + k + ".pba");
  }
  const oclsim::DeviceProfile profile = oclsim::DeviceProfile::snapdragon855();
  auto device = std::make_shared<oclsim::Device>(profile, 1);
  core::Engine engine(device);
  const serve::ServerConfig cfg = server_config(exec_workers);
  // A fresh server per call: the hot-swap commits to the server's
  // repository, so on a fresh server a cls plan_version of 1 is always the
  // cls artifact and 2 the cls-v2 artifact.
  auto make_server = [&](const serve::ServerConfig& c) {
    auto server = std::make_unique<serve::ModelServer>(engine, c, faults,
                                                       "cascade-server");
    server->load_model("det", paths[0]);
    server->load_model("cls", paths[1]);
    return server;
  };
  serve::CascadeSpec cascade;
  cascade.name = "det->cls";
  cascade.stages.push_back(serve::CascadeStageSpec{"det", {}});
  cascade.stages.push_back(serve::CascadeStageSpec{"cls", {}});

  // Setup: trained models -> first served result through the cascade.
  std::vector<SetupSample> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupSample s;
    SpanGuard root(tracer, "setup", -1, rep);
    const double c0 = cpu_ms();
    const double t0 = now_ms();
    std::vector<std::unique_ptr<core::Network>> nets;
    {
      SpanGuard span(tracer, "core::convert_to_phonebit x3", root.id(), rep);
      for (const core::FloatModel& fm : trained) {
        nets.push_back(core::convert_to_phonebit(fm));
      }
    }
    const double t1 = now_ms();
    std::vector<core::ExecutionPlan> plans;
    {
      SpanGuard span(tracer, "Network::compile x3", root.id(), rep);
      for (const auto& net : nets) plans.push_back(net->compile(engine, desc));
    }
    const double t2 = now_ms();
    {
      SpanGuard span(tracer, "artifact::save x3", root.id(), rep);
      for (std::size_t k = 0; k < nets.size(); ++k) {
        artifact::save(*nets[k], plans[k], paths[k]);
      }
    }
    const double t3 = now_ms();
    std::unique_ptr<serve::ModelServer> server;
    {
      SpanGuard span(tracer, "ModelServer::load_model x2", root.id(), rep);
      server = make_server(cfg);
    }
    const double t4 = now_ms();
    {
      SpanGuard span(tracer, "ModelServer::run_cascade (first request)",
                     root.id(), rep);
      std::vector<serve::Request> one;
      one.push_back(serve::Request{{}, inputs.front(), 0.0, 0.0});
      (void)server->run_cascade(cascade, std::move(one));
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
  for (const std::string& p : paths) {
    replay.push_back(std::make_unique<Replayer>(profile, p));
  }
  // Gate threshold: the detector's median max-logit over the inputs, so
  // about half the requests stop after stage 0.
  std::vector<float> peaks;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    peaks.push_back(max_logit(replay[0]->ref(i, inputs[i], tracer)));
  }
  const auto gate_rank = static_cast<std::ptrdiff_t>(peaks.size() / 2);
  std::nth_element(peaks.begin(), peaks.begin() + gate_rank, peaks.end());
  cascade.stages[0].gate.kind = serve::StageGate::Kind::kMaxAtLeast;
  cascade.stages[0].gate.threshold = peaks[static_cast<std::size_t>(gate_rank)];

  // Every Ok output must equal a standalone run of the artifact that served
  // its final stage: the detector when gated out, else the cls version.
  // Ladder rates are checked against the references the nominal runs
  // already replayed (`replay_missing` false), so they add no forwards.
  auto check_outputs = [&](const serve::CascadeSummary& s,
                           const std::string& what, bool replay_missing) {
    int bad = 0;
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      const serve::CascadeRequestResult& r = s.results[i];
      if (!r.status.ok()) continue;
      const std::size_t which =
          r.stages.size() == 1
              ? 0
              : static_cast<std::size_t>(r.stages.back().plan_version);
      const core::Blob* ref = nullptr;
      if (which < replay.size()) {
        ref = replay_missing ? &replay[which]->ref(i, inputs[i], tracer)
                             : replay[which]->find(i);
      }
      if (which >= replay.size() ||
          (ref != nullptr && !same_output(*ref, r.result.output))) {
        ++bad;
        mismatch(m, what + " request " + std::to_string(i));
      }
    }
    if (s.ok + s.shed + s.deadline_exceeded + s.failed != s.requests ||
        s.ok != s.gated_out + s.full_runs) {
      mismatch(m, what + ": cascade accounting does not add up");
    }
    m.attempted += s.requests;
    return bad;
  };
  // The whole trace at `rps` as one run_cascade call on `server`; the
  // hot-swap fires at the middle request's arrival.
  auto serve_trace = [&](serve::ModelServer& server, double rps) {
    std::vector<serve::Request> trace = make_trace(inputs, rps);
    std::vector<serve::SwapEvent> swaps;
    swaps.push_back(serve::SwapEvent{trace[trace.size() / 2].arrival_ms,
                                     "cls", paths[2]});
    return server.run_cascade(cascade, std::move(trace), std::move(swaps));
  };

  phase(m, "gate");
  // Serving overhead (traced pass only): each nominal rep is followed by a
  // replay of every stage's executed inputs through BatchRunner::run on an
  // engine of the same profile and thread count, stage 1 reading the
  // planes stage 0 filled.
  std::shared_ptr<oclsim::Device> replay_device;
  std::unique_ptr<core::Engine> replay_engine;
  std::vector<std::unique_ptr<serve::BatchRunner>> runners;
  std::vector<core::InputPlaneCache> planes;
  if (tracer != nullptr) {
    replay_device = std::make_shared<oclsim::Device>(profile, 1);
    replay_engine = std::make_unique<core::Engine>(replay_device);
    for (const std::string& p : paths) {
      runners.push_back(std::make_unique<serve::BatchRunner>(
          *replay_engine, replay_engine->load_artifact_shared(p),
          exec_workers));
    }
    planes.resize(inputs.size());
  }
  auto replay_serving = [&](const serve::CascadeSummary& s, int rep) {
    std::vector<std::vector<std::size_t>> by_runner(runners.size());
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      const serve::CascadeRequestResult& r = s.results[i];
      for (std::size_t k = 0; k < r.stages.size(); ++k) {
        if (!r.stages[k].status.ok()) continue;
        const std::size_t which =
            k == 0 ? 0 : static_cast<std::size_t>(r.stages[k].plan_version);
        if (which < by_runner.size()) by_runner[which].push_back(i);
      }
    }
    for (core::InputPlaneCache& c : planes) c.reset();
    SpanGuard span(tracer, "BatchRunner::run (serving replay)", -1, rep);
    const double t0 = now_ms();
    for (std::size_t k = 0; k < runners.size(); ++k) {
      if (by_runner[k].empty()) continue;
      std::vector<const core::Blob*> in;
      std::vector<core::InputPlaneCache*> pl;
      for (const std::size_t i : by_runner[k]) {
        in.push_back(&inputs[i]);
        pl.push_back(&planes[i]);
      }
      (void)runners[k]->run(in, pl);
    }
    return now_ms() - t0;
  };

  // Device bytes of the rep's server once it is fully warm: after the
  // call, a run of exec_workers requests per loaded model mints every
  // runner's worker sessions, so the figure does not depend on how the
  // call's few stage-1 forwards fell across runners.
  serve::ModelServer* serving = nullptr;
  auto device_bytes = [&] {
    std::vector<serve::Request> warm;
    for (const std::string& model : serving->models()) {
      for (int w = 0; w < exec_workers; ++w) {
        warm.push_back(serve::Request{
            model, inputs[static_cast<std::size_t>(w)], 0.0, 0.0});
      }
    }
    (void)serving->run(std::move(warm));
    return device->allocated_bytes();
  };

  // Nominal rate, repeated for the run's seconds; checked afterwards.
  NominalTimes times;
  const std::vector<serve::CascadeSummary> reps =
      serve_nominal<serve::CascadeSummary>(
          m, times, args.seconds, tracer != nullptr ? 1 : kMinReps,
          [&](int rep) {
            auto server = make_server(cfg);
            serving = server.get();
            return [&, rep, server = std::move(server)]() {
              SpanGuard span(tracer, "ModelServer::run_cascade", -1, rep);
              return serve_trace(*server, kNominalRps);
            };
          },
          outcome, device_bytes,
          tracer != nullptr ? &replay_serving : nullptr);
  phase(m, "timed");
  const serve::CascadeSummary& first = reps.front();
  const Fingerprint first_fp = fingerprint(first);
  const int mismatches_first =
      check_outputs(first, "cascade nominal rep 0", true);
  for (std::size_t k = 1; k < reps.size(); ++k) {
    const std::string what = "cascade nominal rep " + std::to_string(k);
    check_outputs(reps[k], what, true);
    guard(m, first_fp, fingerprint(reps[k]), what);
  }
  phase(m, "check");
  // The traced pass skips the 1-worker rerun and the capacity ladder:
  // both are virtual-time outcomes, which tracing cannot change.
  if (tracer == nullptr) {
    // At 1 exec worker the whole trace must decide exactly the same.
    {
      auto one = make_server(server_config(1));
      const serve::CascadeSummary s = serve_trace(*one, kNominalRps);
      check_outputs(s, "cascade 1 worker", true);
      guard(m, first_fp, fingerprint(s), "cascade at 1 exec worker");
    }
    phase(m, "one-worker");
    scan_ladder(m, "cascade-server", kLadder, args.cascade_limit_ms,
                [&](double rps) {
                  if (rps == kNominalRps) return outcome(first);
                  auto server = make_server(cfg);
                  const serve::CascadeSummary s = serve_trace(*server, rps);
                  check_outputs(s, "cascade ladder " + std::to_string(rps),
                                false);
                  return outcome(s);
                });
    phase(m, "ladder");
  }
  const serve::CascadeSummary& s = first;
  fill_serving_metrics(m, "cascade-server", outcome(s), mismatches_first,
                       times, tracer != nullptr);
  fill_replay_metrics(m, *replay[0], replay, inputs,
                      "cascade-server det on sd855");
  m.layer["serve.cascade.gated_out"] = s.gated_out;
  m.layer["serve.cascade.reused_planes"] =
      s.stages.size() > 1 ? s.stages[1].reused_planes : 0;
  for (std::size_t k = 0; k < s.stages.size() && k < 2; ++k) {
    m.layer["serve.cascade.stage" + std::to_string(k) + ".p99_ms"] =
        s.stages[k].p99_ms;
  }

  if (tracer != nullptr) {
    std::vector<const U8Tensor*> imgs;
    for (std::size_t i = 0; i < 8; ++i) {
      imgs.push_back(&std::get<U8Tensor>(inputs[i]));
    }
    Replayer& det = *replay[0];
    traced_probes(m, det.artifact().plan, det.session(), inputs.front(),
                  *device, imgs, tracer);
  }
  phase(m, "probes");
  return m;
}

}  // namespace perfbench
