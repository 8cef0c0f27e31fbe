// perfbench — command line, the two measurement passes and the result line.
//
//   perfbench --workload {yolo416|fleet-quicknet|cascade-server} --seed N
//             --seconds S --trace {0|1} [--work-dir DIR] [--trace-out FILE]
//             [--fleet-limit-ms X] [--cascade-limit-ms Y]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures them again untraced, then runs a traced pass (spans, operator new
// counting, dispatch probes) that gives the per-layer metrics, the
// calibration table and the tracing overhead. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const std::vector<MetricDef> kEndToEnd = {
    {"cpu_ms_p50", "ms-cpu"},
    {"cpu_ms_p90", "ms-cpu"},
    {"modeled_ms", "ms-modeled"},
    {"energy_mj", "mJ-modeled"},
    {"throughput_rps", "req/s"},
    {"vlatency_ms_p50", "ms-virtual"},
    {"vlatency_ms_p99", "ms-virtual"},
    {"capacity_rps", "req/s-virtual"},
    {"ok_share", "share"},
    {"setup_s", "s"},
    {"device_mem_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.input_conv.host_ms", "ms"},
    {"core.input_conv.modeled_ms", "ms-modeled"},
    {"core.bconv.host_ms", "ms"},
    {"core.bconv.modeled_ms", "ms-modeled"},
    {"core.pool.host_ms", "ms"},
    {"core.dense.host_ms", "ms"},
    {"core.float_conv.host_ms", "ms"},
    {"core.plan.overhead_ms", "ms"},
    {"core.plan.wall_ms_p50", "ms"},
    {"core.plan.wall_ms_p90", "ms"},
    {"oclsim.launches_per_forward", "count"},
    {"core.allocs_per_forward", "count"},
    {"bitpack.split_bit_planes.host_ms", "ms"},
    {"oclsim.enqueue_us", "us"},
    {"oclsim.enqueue_chunked_us", "us"},
    {"common.parallel_for_us", "us"},
    {"core.convert_ms", "ms"},
    {"core.compile_ms", "ms"},
    {"core.artifact.save_ms", "ms"},
    {"core.artifact.load_ms", "ms"},
    {"core.first_forward_ms", "ms"},
    {"core.setup_wall_s", "s"},
    {"core.slab_bytes", "bytes"},
    {"core.scratch_bytes", "bytes"},
    {"core.param_bytes", "bytes"},
    {"serve.exec_parallelism", "ratio"},
    {"serve.overhead_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.retries", "count"},
    {"serve.spillovers", "count"},
    {"serve.queue_ms_p99", "ms-virtual"},
    {"serve.shard.sd855.requests", "count"},
    {"serve.shard.sd855.utilization", "share"},
    {"serve.shard.sd660.requests", "count"},
    {"serve.shard.sd660.utilization", "share"},
    {"serve.shard.sd625.requests", "count"},
    {"serve.shard.sd625.utilization", "share"},
    {"serve.cascade.gated_out", "count"},
    {"serve.cascade.reused_planes", "count"},
    {"serve.cascade.stage0.p99_ms", "ms-virtual"},
    {"serve.cascade.stage1.p99_ms", "ms-virtual"},
    {"energy.avg_power_mw", "mW"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{yolo416|fleet-quicknet|cascade-server} --seed N --seconds S "
               "--trace {0|1} [--work-dir DIR] [--trace-out FILE] "
               "[--fleet-limit-ms X] [--cascade-limit-ms Y]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (key == "--work-dir") {
      a.work_dir = v;
    } else if (key == "--trace-out") {
      a.trace_out = v;
    } else if (key == "--fleet-limit-ms") {
      a.fleet_limit_ms = std::strtod(v, &end);
    } else if (key == "--cascade-limit-ms") {
      a.cascade_limit_ms = std::strtod(v, &end);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && a.seconds > 0.0;
}

Measurement measure(const Args& a, Tracer* tracer) {
  if (a.workload == "yolo416") return run_yolo416(a, tracer);
  if (a.workload == "fleet-quicknet") return run_fleet_quicknet(a, tracer);
  return run_cascade_server(a, tracer);
}

void print_env(const Args& a, const Measurement& m) {
  std::printf("perfbench env {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %d, \"devices\": %d, "
              "\"device_threads\": %d, \"exec_workers\": %d, \"samples\": {",
              a.workload.c_str(), static_cast<unsigned long long>(m.env.seed),
              a.trace ? 1 : 0, m.env.nproc, m.env.devices,
              m.env.device_threads, m.env.exec_workers);
  bool first = true;
  for (const auto& [name, n] : m.samples) {
    std::printf("%s\"%s\": %lld", first ? "" : ", ", name.c_str(),
                static_cast<long long>(n));
    first = false;
  }
  std::printf("}, \"phases_s\": {");
  first = true;
  for (const auto& [name, secs] : m.phases) {
    std::printf("%s\"%s\": %.2f", first ? "" : ", ", name.c_str(), secs);
    first = false;
  }
  std::printf("}}\n");
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it != values.end() ? it->second : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  Measurement untraced = measure(a, nullptr);
  std::int64_t attempted = untraced.attempted;
  std::int64_t failed = untraced.failed;
  std::vector<std::string> errors = untraced.errors;
  for (const MetricDef& d : kEndToEnd) {
    if (untraced.e2e.count(d.name) == 0) {
      errors.push_back(std::string("metric ") + d.name + " not measured");
    }
  }

  Measurement traced;
  if (a.trace) {
    // The traced pass measures for half the time; it skips the checks whose
    // outcome is virtual time (the 1-worker rerun, the capacity ladder).
    Args half = a;
    half.seconds = a.seconds / 2;
    Tracer tracer;
    traced = measure(half, &tracer);
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (!a.trace_out.empty() && !tracer.write(a.trace_out)) {
      errors.push_back("cannot write " + a.trace_out);
    }
    for (const std::string& line : traced.notes) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("tracing overhead (traced - untraced)\n");
    for (const MetricDef& d : kEndToEnd) {
      const double u = untraced.e2e[d.name];
      const auto it = traced.e2e.find(d.name);
      if (it == traced.e2e.end()) {
        std::printf("  %-16s %14.6g %14s %14s %s\n", d.name, u, "-", "-",
                    d.unit);
      } else {
        std::printf("  %-16s %14.6g %14.6g %+14.6g %s\n", d.name, u,
                    it->second, it->second - u, d.unit);
      }
    }
    std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                a.trace_out.empty() ? "(not written)" : a.trace_out.c_str());
  }
  print_env(a, a.trace ? traced : untraced);

  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "perfbench: ERROR %s\n", e.c_str());
    }
    return 3;
  }
  const bool correct = failed == 0;
  if (a.trace) {
    print_result(correct, attempted, failed, kPerLayer, traced.layer);
  } else {
    print_result(correct, attempted, failed, kEndToEnd, untraced.e2e);
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    return perfbench::usage("bad arguments");
  }
  if (a.workload != "yolo416" && a.workload != "fleet-quicknet" &&
      a.workload != "cascade-server") {
    return perfbench::usage("unknown workload");
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
