// perfbench — the PhoneBit end-to-end and per-layer benchmark.
//
// Everything here measures the library from outside: the benchmark times
// its own calls into public functions and reads what those calls already
// return (ForwardResult reports, session KernelEvents, serve summaries).
// See README.md for the workloads, the metrics and how to run it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/phonebit.hpp"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string work_dir = ".";  ///< artifacts (.pba) are written here
  std::string trace_out;       ///< span file of the traced run ("" = none)
  double fleet_limit_ms = 0.0;    ///< capacity ladder p99 limit, fleet
  double cascade_limit_ms = 0.0;  ///< capacity ladder p99 limit, cascade
};

/// Wall clock in milliseconds (steady_clock).
double now_ms();

/// CPU time of the whole process in milliseconds, all threads. On a shared
/// virtual machine wall time tracks the CPU time the hypervisor steals from
/// the guest; the guest's CPU clocks do not count it, so per-forward times
/// and setup_s are on this clock (their wall times are reported per layer).
double cpu_ms();

/// splitmix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

// --- statistics -------------------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 for an empty sample.
double median(std::vector<double> v);
/// Nearest-rank percentile (serve::percentile's definition) of an unsorted
/// sample.
double pct(std::vector<double> v, double q);
/// Samples ranked strictly above the nearest-rank q-percentile.
std::int64_t above_pct(std::size_t n, double q);

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder of the traced run. A span has a name, a start
/// and end on the benchmark's wall clock, the span that caused it, and an
/// id shared by every span of one request or forward. Per-step LayerReport
/// durations are attached as child records laid end to end from the
/// parent's start, so a span's self time is its duration minus its
/// children. Written out as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::int64_t id = -1;
  };

  int open(std::string name, int parent = -1, std::int64_t id = -1);
  void close(int span);
  /// A child record with explicit times (not measured by this tracer).
  int record(std::string name, double start_ms, double end_ms, int parent,
             std::int64_t id);
  /// One child record per step of `result.report` under `parent`.
  void attach_report(int parent, const phonebit::core::ForwardResult& result);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on a possibly-null tracer and closes it on scope exit.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string name, int parent = -1,
            std::int64_t id = -1)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->open(std::move(name), parent, id)
                                : -1) {}
  ~SpanGuard() { close(); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  void close() {
    if (tracer_ != nullptr && span_ >= 0) tracer_->close(span_);
    tracer_ = nullptr;
  }
  int id() const noexcept { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

// --- global operator new counter (alloc_count.cpp) -------------------------

/// Turns the operator new counter on or off (off by default; only the
/// traced run turns it on).
void count_allocs(bool on);
/// operator new calls counted so far, on every thread.
std::int64_t allocs();

// --- results --------------------------------------------------------------

/// Threads and seed of a run, printed with every result.
struct Env {
  int nproc = 0;
  int device_threads = 0;  ///< per Device
  int devices = 0;
  int exec_workers = 0;    ///< per serving runner (0: caller runs forwards)
  std::uint64_t seed = 0;
};

/// Everything one measurement pass produced.
struct Measurement {
  Env env;
  std::map<std::string, double> e2e;    ///< end-to-end metric values
  std::map<std::string, double> layer;  ///< per-layer metric values
  std::map<std::string, std::int64_t> samples;  ///< sample count per metric
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< output mismatches + accounting violations
  /// Determinism-guard violations: reported as errors, never as numbers.
  std::vector<std::string> errors;
  std::vector<std::string> notes;  ///< report lines (calibration table)
  /// Wall seconds of each phase of the run, in order (see phase()).
  std::vector<std::pair<std::string, double>> phases;
  double phase_mark_ms = now_ms();
};

/// Ends the current phase of `m`'s run under `name`.
void phase(Measurement& m, const std::string& name);

Measurement run_yolo416(const Args& args, Tracer* tracer);
Measurement run_fleet_quicknet(const Args& args, Tracer* tracer);
Measurement run_cascade_server(const Args& args, Tracer* tracer);

// --- shared measurement helpers (common.cpp) ---------------------------------

/// Bit-exact output comparison (float outputs compared as raw bits).
bool same_output(const phonebit::core::Blob& a, const phonebit::core::Blob& b);

/// Per-forward host/modeled time by layer family.
struct LayerSplit {
  double input_conv_host = 0.0, input_conv_modeled = 0.0;
  double bconv_host = 0.0, bconv_modeled = 0.0;
  double pool_host = 0.0, dense_host = 0.0, float_conv_host = 0.0;
  double steps_host = 0.0;
};

/// Accumulates per-layer samples over many forwards of one plan and turns
/// them into the core.* per-layer metrics plus the calibration table.
class LayerStats {
 public:
  explicit LayerStats(const phonebit::core::ExecutionPlan* plan)
      : plan_(plan) {}
  /// Adds one forward; `wall_ms` is the measured plan.run span.
  void add(const phonebit::core::ForwardResult& result, double wall_ms);
  /// Writes core.input_conv/bconv/pool/dense/float_conv/plan metrics.
  void fill(Measurement& m) const;
  /// Per-step share of modeled time beside share of host time.
  void calibration(Measurement& m, const std::string& title) const;

 private:
  const phonebit::core::ExecutionPlan* plan_;
  std::vector<LayerSplit> splits_;
  std::vector<double> walls_;
  std::vector<std::vector<double>> step_host_, step_modeled_;
};

/// Setup spans of one "trained model -> first served result" repetition.
struct SetupSample {
  double convert_ms = 0.0, compile_ms = 0.0, save_ms = 0.0, load_ms = 0.0;
  double first_forward_ms = 0.0, total_ms = 0.0;
  double total_cpu_ms = 0.0;  ///< process CPU time of the whole repetition
};
/// Writes setup_s (CPU) and the core.convert/compile/artifact/first_forward
/// (wall) metrics as medians over the repetitions.
void fill_setup(Measurement& m, const std::vector<SetupSample>& reps);

/// The traced pass's probes: operator new calls of a warm forward of `plan`
/// on `session` (core.allocs_per_forward, median of 5), then the dispatch
/// probes on the workload's own `device` with the NDRange of that
/// forward's median kernel (oclsim.enqueue_us, oclsim.enqueue_chunked_us,
/// common.parallel_for_us) and bitpack::split_bit_planes on `images`.
void traced_probes(Measurement& m, const phonebit::core::ExecutionPlan& plan,
                   phonebit::core::ExecSession& session,
                   const phonebit::core::Blob& input,
                   phonebit::oclsim::Device& device,
                   const std::vector<const phonebit::U8Tensor*>& images,
                   Tracer* tracer);

/// Writes the plan/network memory metrics (core.slab/scratch/param_bytes).
void fill_memory(Measurement& m, const phonebit::core::ExecutionPlan& plan,
                 const phonebit::core::Network& net);

/// Writes the per-forward host metrics: cpu_ms_p50/p90 from process CPU
/// time samples, core.plan.wall_ms_p50/p90 from wall time samples. At
/// least 10 CPU samples must rank above p90; with `require_tail` false a
/// thinner tail only adds a note.
void fill_forward_times(Measurement& m, const std::vector<double>& cpu,
                        const std::vector<double>& wall,
                        const std::string& what, bool require_tail = true);

/// Bumps `m.failed` and records why.
void mismatch(Measurement& m, const std::string& what);

/// Hardware threads of the host running the benchmark (at least 1).
int nproc();

}  // namespace perfbench
