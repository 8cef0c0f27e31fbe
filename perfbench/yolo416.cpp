// perfbench workload yolo416 — closed loop, one client: back-to-back N=1
// forwards of full-size YOLOv2-Tiny (416x416x3, the paper's detector)
// loaded from a .pba on the SD855 profile. The serving plane is bypassed,
// so serve and dispatch changes should show no change here.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "datasets/synthetic.hpp"
#include "energy/power_model.hpp"
#include "models/zoo.hpp"

namespace perfbench {

using namespace phonebit;

namespace {

constexpr int kSetupReps = 9;
constexpr std::size_t kMinForwards = 100;  // >= 10 samples above p90
// The traced pass feeds only per-layer medians and the overhead table; at
// ~0.5 s a forward, 100 more would bring a traced run near its time limit.
constexpr std::size_t kTracedForwards = 40;
constexpr std::int64_t kImageHw = 416;
constexpr std::size_t kCheckedMid = 50;    // forward checked besides 0, last
// Throughput is the median over blocks of consecutive forwards of forwards
// per wall second.
constexpr std::size_t kBlock = 10;

struct Pinned {
  U8Tensor image;
  core::Blob output;
  std::size_t index = 0;
};

}  // namespace

Measurement run_yolo416(const Args& args, Tracer* tracer) {
  Measurement m;
  // One device thread: parallel_for then runs inline on the caller, so a
  // forward's wall time follows one vCPU. Spread over nproc - 1 threads, it
  // waited on whichever vCPU the host was slowest to run, and the wall
  // throughput of 10 runs spread 35% (IQR/median) on a shared 4-vCPU host.
  const int threads = 1;
  m.env = Env{nproc(), threads, 1, 0, args.seed};

  // Benchmark input generation: excluded from every timing.
  const core::NetworkSpec spec = models::yolov2_tiny();
  const core::FloatModel trained = core::FloatModel::random(spec, args.seed);
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  const U8Tensor first_image =
      datasets::voc_like_image(kImageHw, mix(args.seed, 0));
  const std::string pba = args.work_dir + "/yolo416.pba";
  const oclsim::DeviceProfile profile = oclsim::DeviceProfile::snapdragon855();

  // Setup: trained model -> first served result, repeated on fresh devices.
  std::vector<SetupSample> setup;
  std::shared_ptr<oclsim::Device> device;
  std::unique_ptr<core::Engine> engine;
  std::shared_ptr<const artifact::LoadedArtifact> art;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    art.reset();
    engine.reset();
    device = std::make_shared<oclsim::Device>(profile, threads);
    engine = std::make_unique<core::Engine>(device);
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
    std::optional<core::ExecutionPlan> plan;
    {
      SpanGuard span(tracer, "Network::compile", root.id(), rep);
      plan.emplace(net->compile(*engine, desc));
    }
    const double t2 = now_ms();
    {
      SpanGuard span(tracer, "artifact::save", root.id(), rep);
      artifact::save(*net, *plan, pba);
    }
    const double t3 = now_ms();
    {
      SpanGuard span(tracer, "Engine::load_artifact_shared", root.id(), rep);
      art = engine->load_artifact_shared(pba);
    }
    const double t4 = now_ms();
    {
      SpanGuard span(tracer, "ExecutionPlan::run (cold)", root.id(), rep);
      core::ExecSession session = engine->create_session();
      const core::ForwardResult r =
          art->plan.run(session, core::Blob{first_image});
      (void)r;
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
  fill_memory(m, art->plan, *art->network);

  // Warm-up, then the deterministic per-frame figures of one warm forward.
  core::ExecSession session = engine->create_session();
  const core::Blob first_blob{first_image};
  for (int i = 0; i < 2; ++i) {
    session.reset_profile();
    (void)art->plan.run(session, first_blob);
  }
  session.reset_profile();
  const core::ForwardResult warm = art->plan.run(session, first_blob);
  const std::vector<oclsim::KernelEvent> warm_events = session.queue().events();
  const energy::PowerReport power =
      energy::estimate_power(warm_events, profile);
  const double modeled_ms = warm.modeled_ms;
  const std::int64_t device_bytes = device->allocated_bytes();

  // The timed closed loop: a fresh image per request, plan.run timed alone.
  LayerStats layers(&art->plan);
  std::vector<double> walls, cpus;
  double run_ms = 0.0, host_sum = 0.0;
  std::vector<Pinned> checked;
  std::optional<Pinned> last;
  std::vector<U8Tensor> probe_images;
  const std::size_t min_forwards =
      tracer != nullptr ? kTracedForwards : kMinForwards;
  const double loop0 = now_ms();
  for (std::size_t i = 0;
       walls.size() < min_forwards || now_ms() - loop0 < args.seconds * 1e3;
       ++i) {
    U8Tensor image = datasets::voc_like_image(kImageHw, mix(args.seed, i + 1));
    const core::Blob input{image};
    session.reset_profile();
    int span = -1;
    if (tracer != nullptr) {
      span = tracer->open("ExecutionPlan::run", -1,
                          static_cast<std::int64_t>(i));
    }
    const double c0 = cpu_ms();
    const double t0 = now_ms();
    core::ForwardResult r = art->plan.run(session, input);
    const double wall = now_ms() - t0;
    cpus.push_back(cpu_ms() - c0);
    if (tracer != nullptr) {
      tracer->close(span);
      tracer->attach_report(span, r);
    }
    ++m.attempted;
    walls.push_back(wall);
    run_ms += wall;
    host_sum += r.host_ms;
    layers.add(r, wall);
    if (r.modeled_ms != modeled_ms ||
        session.queue().events().size() != warm_events.size()) {
      m.errors.push_back("yolo416: forward " + std::to_string(i) +
                         " modeled time or launch count drifted");
    }
    if (probe_images.size() < 8) probe_images.push_back(image);
    Pinned p{std::move(image), std::move(r.output), i};
    if (i == 0 || i == kCheckedMid) {
      checked.push_back(std::move(p));
    } else {
      last = std::move(p);
    }
  }
  std::vector<double> block_rps;
  for (std::size_t b = 0; b + kBlock <= walls.size(); b += kBlock) {
    double block_ms = 0.0;
    for (std::size_t k = b; k < b + kBlock; ++k) block_ms += walls[k];
    block_rps.push_back(static_cast<double>(kBlock) / (block_ms / 1e3));
  }
  if (last) checked.push_back(std::move(*last));
  if (device->allocated_bytes() != device_bytes) {
    m.errors.push_back("yolo416: device bytes moved after warm-up");
  }

  phase(m, "timed");
  // Output check: sampled forwards bit-exact against the uncompiled
  // Network::forward on a fresh session.
  for (const Pinned& p : checked) {
    core::ExecSession fresh = engine->create_session();
    core::ExecContext ctx = fresh.context();
    const core::ForwardResult ref =
        art->network->forward(ctx, core::Blob{p.image});
    if (!same_output(ref.output, p.output)) {
      mismatch(m, "yolo416 forward " + std::to_string(p.index) +
                      " differs from Network::forward");
    }
  }

  phase(m, "check");
  const std::size_t n = walls.size();
  fill_forward_times(m, cpus, walls, "yolo416", tracer == nullptr);
  // A single client on one device: every frame's virtual latency is its
  // modeled time, and the device completes 1000/modeled frames a second.
  m.e2e["modeled_ms"] = modeled_ms;
  m.e2e["energy_mj"] = power.energy_mj_per_frame;
  m.e2e["throughput_rps"] = median(block_rps);
  m.e2e["vlatency_ms_p50"] = modeled_ms;
  m.e2e["vlatency_ms_p99"] = modeled_ms;
  m.e2e["capacity_rps"] = 1e3 / modeled_ms;
  m.e2e["ok_share"] =
      static_cast<double>(m.attempted - m.failed) /
      static_cast<double>(m.attempted);
  m.e2e["device_mem_mb"] = static_cast<double>(device_bytes) / 1e6;
  m.samples["ok_share"] = static_cast<std::int64_t>(n);
  m.samples["throughput_rps"] = static_cast<std::int64_t>(block_rps.size());
  for (const char* name : {"modeled_ms", "energy_mj", "vlatency_ms_p50",
                           "vlatency_ms_p99", "capacity_rps",
                           "device_mem_mb"}) {
    m.samples[name] = 1;
  }

  // Per-layer metrics (reported by the traced run).
  layers.fill(m);
  layers.calibration(m, "yolo416 on sd855");
  m.layer["oclsim.launches_per_forward"] =
      static_cast<double>(warm_events.size());
  m.layer["energy.avg_power_mw"] = power.avg_power_mw;
  m.layer["serve.exec_parallelism"] = host_sum / run_ms;
  if (tracer != nullptr) {
    std::vector<const U8Tensor*> imgs;
    for (const U8Tensor& img : probe_images) imgs.push_back(&img);
    traced_probes(m, art->plan, session, first_blob, *device, imgs, tracer);
  }
  phase(m, "probes");
  return m;
}

}  // namespace perfbench
