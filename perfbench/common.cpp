// perfbench — statistics, tracing and the probes every workload shares.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "bench.hpp"
#include "bitpack/pack.hpp"
#include "serve/virtual_time.hpp"

namespace perfbench {

using namespace phonebit;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return serve::percentile(v, q);
}

std::int64_t above_pct(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return static_cast<std::int64_t>(n - std::min(rank, n));
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// --- tracing ----------------------------------------------------------------

int Tracer::open(std::string name, int parent, std::int64_t id) {
  const double t = now_ms();
  spans_.push_back(Span{std::move(name), t, t, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = now_ms();
}

int Tracer::record(std::string name, double start_ms, double end_ms,
                   int parent, std::int64_t id) {
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::attach_report(int parent, const core::ForwardResult& result) {
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  const std::int64_t id = p.id;
  double t = p.start_ms;
  for (const core::LayerReport& lr : result.report) {
    record(lr.name, t, t + lr.host_ms, parent, id);
    t += lr.host_ms;
  }
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_ms;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    for (const char c : s.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      name.push_back(c);
    }
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"id\": %lld}}",
                 i == 0 ? "" : ",\n", name.c_str(), (s.start_ms - t0) * 1e3,
                 (s.end_ms - s.start_ms) * 1e3, i, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- outputs and layers ---------------------------------------------------

bool same_output(const core::Blob& a, const core::Blob& b) {
  if (a.index() != b.index()) return false;
  if (const auto* fa = std::get_if<FloatTensor>(&a)) {
    const auto& fb = std::get<FloatTensor>(b);
    return fa->shape() == fb.shape() &&
           std::memcmp(fa->data(), fb.data(),
                       static_cast<std::size_t>(fa->elems()) * 4) == 0;
  }
  if (const auto* ua = std::get_if<U8Tensor>(&a)) {
    const auto& ub = std::get<U8Tensor>(b);
    return ua->shape() == ub.shape() &&
           std::memcmp(ua->data(), ub.data(),
                       static_cast<std::size_t>(ua->elems())) == 0;
  }
  return std::get<bitpack::PackedTensor>(a) ==
         std::get<bitpack::PackedTensor>(b);
}

namespace {

LayerSplit split_layers(const core::ExecutionPlan& plan,
                        const core::ForwardResult& result) {
  LayerSplit s;
  const auto& steps = plan.steps();
  const std::size_t n = std::min(steps.size(), result.report.size());
  for (std::size_t i = 0; i < n; ++i) {
    const core::Layer* layer = steps[i].layer;
    const core::LayerReport& lr = result.report[i];
    s.steps_host += lr.host_ms;
    if (dynamic_cast<const core::InputConv2d*>(layer) != nullptr) {
      s.input_conv_host += lr.host_ms;
      s.input_conv_modeled += lr.modeled_ms;
    } else if (dynamic_cast<const core::BinaryConv2d*>(layer) != nullptr) {
      s.bconv_host += lr.host_ms;
      s.bconv_modeled += lr.modeled_ms;
    } else if (dynamic_cast<const core::MaxPool2d*>(layer) != nullptr) {
      s.pool_host += lr.host_ms;
    } else if (dynamic_cast<const core::BinaryDense*>(layer) != nullptr ||
               dynamic_cast<const core::FloatDense*>(layer) != nullptr) {
      s.dense_host += lr.host_ms;
    } else if (dynamic_cast<const core::FloatConv2d*>(layer) != nullptr) {
      s.float_conv_host += lr.host_ms;
    }
  }
  return s;
}

}  // namespace

void LayerStats::add(const core::ForwardResult& result, double wall_ms) {
  splits_.push_back(split_layers(*plan_, result));
  walls_.push_back(wall_ms);
  if (step_host_.size() < result.report.size()) {
    step_host_.resize(result.report.size());
    step_modeled_.resize(result.report.size());
  }
  for (std::size_t i = 0; i < result.report.size(); ++i) {
    step_host_[i].push_back(result.report[i].host_ms);
    step_modeled_[i].push_back(result.report[i].modeled_ms);
  }
}

void LayerStats::fill(Measurement& m) const {
  auto med = [this](double LayerSplit::*field) {
    std::vector<double> v;
    v.reserve(splits_.size());
    for (const LayerSplit& s : splits_) v.push_back(s.*field);
    return median(std::move(v));
  };
  m.layer["core.input_conv.host_ms"] = med(&LayerSplit::input_conv_host);
  m.layer["core.input_conv.modeled_ms"] = med(&LayerSplit::input_conv_modeled);
  m.layer["core.bconv.host_ms"] = med(&LayerSplit::bconv_host);
  m.layer["core.bconv.modeled_ms"] = med(&LayerSplit::bconv_modeled);
  m.layer["core.pool.host_ms"] = med(&LayerSplit::pool_host);
  m.layer["core.dense.host_ms"] = med(&LayerSplit::dense_host);
  m.layer["core.float_conv.host_ms"] = med(&LayerSplit::float_conv_host);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    overhead.push_back(walls_[i] - splits_[i].steps_host);
  }
  m.layer["core.plan.overhead_ms"] = median(std::move(overhead));
  for (const char* name :
       {"core.input_conv.host_ms", "core.input_conv.modeled_ms",
        "core.bconv.host_ms", "core.bconv.modeled_ms", "core.pool.host_ms",
        "core.dense.host_ms", "core.float_conv.host_ms",
        "core.plan.overhead_ms"}) {
    m.samples[name] = static_cast<std::int64_t>(splits_.size());
  }
}

void LayerStats::calibration(Measurement& m, const std::string& title) const {
  const auto& steps = plan_->steps();
  std::vector<double> host, modeled;
  double host_total = 0.0, modeled_total = 0.0;
  for (std::size_t i = 0; i < step_host_.size(); ++i) {
    host.push_back(median(step_host_[i]));
    modeled.push_back(median(step_modeled_[i]));
    host_total += host.back();
    modeled_total += modeled.back();
  }
  char line[256];
  m.notes.push_back("calibration " + title + " (median of " +
                    std::to_string(walls_.size()) + " forwards)");
  std::snprintf(line, sizeof line, "  %-16s %-22s %11s %8s %11s %8s",
                "step", "kernel", "modeled_ms", "mod%", "host_ms", "host%");
  m.notes.push_back(line);
  for (std::size_t i = 0; i < host.size(); ++i) {
    const std::string name = i < steps.size() ? steps[i].name() : "?";
    const std::string kernel =
        i < steps.size() ? steps[i].variant.kernel : "?";
    std::snprintf(line, sizeof line,
                  "  %-16s %-22s %11.4f %7.1f%% %11.4f %7.1f%%", name.c_str(),
                  kernel.c_str(), modeled[i],
                  modeled_total > 0 ? 100.0 * modeled[i] / modeled_total : 0.0,
                  host[i], host_total > 0 ? 100.0 * host[i] / host_total : 0.0);
    m.notes.push_back(line);
  }
}

// --- setup, probes, memory ------------------------------------------------

void fill_setup(Measurement& m, const std::vector<SetupSample>& reps) {
  auto med = [&reps](double SetupSample::*field) {
    std::vector<double> v;
    for (const SetupSample& s : reps) v.push_back(s.*field);
    return median(std::move(v));
  };
  m.e2e["setup_s"] = med(&SetupSample::total_cpu_ms) / 1e3;
  m.layer["core.setup_wall_s"] = med(&SetupSample::total_ms) / 1e3;
  m.layer["core.convert_ms"] = med(&SetupSample::convert_ms);
  m.layer["core.compile_ms"] = med(&SetupSample::compile_ms);
  m.layer["core.artifact.save_ms"] = med(&SetupSample::save_ms);
  m.layer["core.artifact.load_ms"] = med(&SetupSample::load_ms);
  m.layer["core.first_forward_ms"] = med(&SetupSample::first_forward_ms);
  for (const char* name :
       {"setup_s", "core.setup_wall_s", "core.convert_ms", "core.compile_ms",
        "core.artifact.save_ms", "core.artifact.load_ms",
        "core.first_forward_ms"}) {
    m.samples[name] = static_cast<std::int64_t>(reps.size());
  }
}

namespace {

std::int64_t representative_items(
    const std::vector<oclsim::KernelEvent>& events) {
  std::vector<double> items;
  for (const oclsim::KernelEvent& ev : events) {
    items.push_back(static_cast<double>(ev.range.items()));
  }
  return std::max<std::int64_t>(1,
                                static_cast<std::int64_t>(median(items)));
}

void probe_dispatch(Measurement& m, oclsim::Device& device,
                    std::int64_t items,
                    const std::vector<const U8Tensor*>& images,
                    Tracer* tracer) {
  constexpr int kCalls = 200;
  oclsim::CommandQueue queue(device, oclsim::ExecUnit::kGpu);
  const oclsim::NDRange range{items, 1, 1};
  const oclsim::KernelCost cost{};
  std::vector<double> enqueue_us, chunked_us, pfor_us, split_ms;
  {
    SpanGuard span(tracer, "oclsim.enqueue x" + std::to_string(kCalls));
    for (int i = 0; i < kCalls; ++i) {
      const double t0 = now_ms();
      queue.enqueue("empty", range, cost, [](const oclsim::WorkItem&) {});
      enqueue_us.push_back((now_ms() - t0) * 1e3);
      queue.reset_events();
    }
  }
  {
    SpanGuard span(tracer, "oclsim.enqueue_chunked x" + std::to_string(kCalls));
    for (int i = 0; i < kCalls; ++i) {
      const double t0 = now_ms();
      queue.enqueue_chunked("empty", range, cost,
                            [](std::int64_t, std::int64_t) {});
      chunked_us.push_back((now_ms() - t0) * 1e3);
      queue.reset_events();
    }
  }
  {
    SpanGuard span(tracer, "ThreadPool::parallel_for x" +
                               std::to_string(kCalls));
    for (int i = 0; i < kCalls; ++i) {
      const double t0 = now_ms();
      device.pool().parallel_for(items, [](std::int64_t, std::int64_t) {});
      pfor_us.push_back((now_ms() - t0) * 1e3);
    }
  }
  for (const U8Tensor* img : images) {
    SpanGuard span(tracer, "bitpack::split_bit_planes");
    const double t0 = now_ms();
    const auto planes = bitpack::split_bit_planes(*img);
    split_ms.push_back(now_ms() - t0);
    (void)planes;
  }
  m.layer["oclsim.enqueue_us"] = median(enqueue_us);
  m.layer["oclsim.enqueue_chunked_us"] = median(chunked_us);
  m.layer["common.parallel_for_us"] = median(pfor_us);
  m.layer["bitpack.split_bit_planes.host_ms"] = median(split_ms);
  m.samples["oclsim.enqueue_us"] = kCalls;
  m.samples["oclsim.enqueue_chunked_us"] = kCalls;
  m.samples["common.parallel_for_us"] = kCalls;
  m.samples["bitpack.split_bit_planes.host_ms"] =
      static_cast<std::int64_t>(split_ms.size());
  m.notes.push_back("dispatch probes: NDRange of " + std::to_string(items) +
                    " items (median over the workload's kernel events), " +
                    std::to_string(device.pool().size()) + " device threads");
}

std::int64_t allocs_per_forward(const core::ExecutionPlan& plan,
                                core::ExecSession& session,
                                const core::Blob& input) {
  session.reset_profile();
  const std::int64_t before = allocs();
  core::ForwardResult r = plan.run(session, input);
  const std::int64_t after = allocs();
  (void)r;
  return after - before;
}

}  // namespace

void traced_probes(Measurement& m, const core::ExecutionPlan& plan,
                   core::ExecSession& session, const core::Blob& input,
                   oclsim::Device& device,
                   const std::vector<const U8Tensor*>& images,
                   Tracer* tracer) {
  constexpr int kAllocForwards = 5;
  count_allocs(true);
  std::vector<double> counts;
  for (int i = 0; i < kAllocForwards; ++i) {
    counts.push_back(
        static_cast<double>(allocs_per_forward(plan, session, input)));
  }
  count_allocs(false);
  m.layer["core.allocs_per_forward"] = median(counts);
  m.samples["core.allocs_per_forward"] = kAllocForwards;
  session.reset_profile();
  (void)plan.run(session, input);
  probe_dispatch(m, device, representative_items(session.queue().events()),
                 images, tracer);
}


void fill_memory(Measurement& m, const core::ExecutionPlan& plan,
                 const core::Network& net) {
  m.layer["core.slab_bytes"] = static_cast<double>(plan.slab_bytes());
  m.layer["core.scratch_bytes"] =
      static_cast<double>(plan.peak_scratch_bytes());
  m.layer["core.param_bytes"] = static_cast<double>(net.param_bytes());
}

void phase(Measurement& m, const std::string& name) {
  const double t = now_ms();
  m.phases.emplace_back(name, (t - m.phase_mark_ms) / 1e3);
  m.phase_mark_ms = t;
}

void fill_forward_times(Measurement& m, const std::vector<double>& cpu,
                        const std::vector<double>& wall,
                        const std::string& what, bool require_tail) {
  m.e2e["cpu_ms_p50"] = median(cpu);
  m.e2e["cpu_ms_p90"] = pct(cpu, 90.0);
  m.layer["core.plan.wall_ms_p50"] = median(wall);
  m.layer["core.plan.wall_ms_p90"] = pct(wall, 90.0);
  m.samples["cpu_ms_p50"] = static_cast<std::int64_t>(cpu.size());
  m.samples["cpu_ms_p90"] = static_cast<std::int64_t>(cpu.size());
  m.samples["core.plan.wall_ms_p50"] = static_cast<std::int64_t>(wall.size());
  m.samples["core.plan.wall_ms_p90"] = static_cast<std::int64_t>(wall.size());
  const std::int64_t tail = above_pct(cpu.size(), 90.0);
  if (tail < 10 && require_tail) {
    m.errors.push_back(what + ": fewer than 10 forwards above p90");
  } else if (tail < 10) {
    m.notes.push_back(what + ": only " + std::to_string(tail) +
                      " forwards lie above p90");
  }
}

void mismatch(Measurement& m, const std::string& what) {
  ++m.failed;
  if (m.failed <= 5) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
  }
}

}  // namespace perfbench
