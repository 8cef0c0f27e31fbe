// PhoneBit — engine configuration.
//
// Every optimization the paper describes is a switch here so the ablation
// benchmarks can turn them off one at a time (DESIGN.md §3). Defaults are
// the paper's configuration. The engine's own conv schedule — the
// row-fused interior/border window walk with span-keyed pack widths and
// 8-column output tiles (DESIGN.md §4) — is not a switch: it is the one
// schedule every conv runs.
#pragma once

#include <cstdint>

#include "bitpack/binary_ops.hpp"
#include "tensor/shape.hpp"

namespace phonebit::core {

/// Which conv execution path the planner may pick for BinaryConv2d steps.
/// kAuto lets ahead-of-time selection choose between the row-fused window
/// schedule (path A) and the register-tiled bit-GEMM lowering (path D) per
/// geometry via the roofline model on a fixed reference profile, so the
/// choice is a pure function of (options, geometry) — the determinism the
/// artifact codec's plan replay depends on. The pinned values exist for
/// ablation benches and for tests that assert a specific kernel shape.
enum class ConvPathPreference : std::uint8_t {
  kAuto = 0,      ///< roofline-selected per geometry (default)
  kRowFused = 1,  ///< always the window-streaming paths A/B/C
  kGemm = 2,      ///< always the bit-GEMM path D (where legal)
};

/// Weight-compression policy (DESIGN.md §12). Compression is always
/// lossless — the dictionary/index/delta factorization reconstructs the
/// packed filter bank bit-exactly — so the knob only controls where it is
/// applied. kOff keeps today's behaviour byte-for-byte (v3 artifacts, raw
/// weight records). kLossless compresses artifact storage (format v4) but
/// executes the plain kernels. kAuto additionally lets ahead-of-time
/// selection pick the partial-popcount reuse kernels where the roofline
/// model says the measured redundancy pays for the delta corrections.
enum class WeightCompress : std::uint8_t {
  kOff = 0,       ///< raw weights, format v3, plain kernels (default)
  kLossless = 1,  ///< compressed .pba storage only, execution unchanged
  kAuto = 2,      ///< compressed storage + roofline-selected reuse kernels
};

/// Tunable engine behaviour (all paper defaults ON).
struct EngineOptions {
  /// §V-B layer integration: fuse binary-conv + batch-norm + binarization
  /// into a single kernel using the folded threshold ξ.
  bool fuse_bn_binarize = true;

  /// §VI-C: use the Karnaugh-reduced branch-free Eqn 9 instead of the
  /// divergent four-way Eqn 8.
  bool branch_free_binarize = true;

  /// §VI-B workload optimization: one work item computes 8 filters and packs
  /// their bits into one byte in private memory (Fig. 4).
  bool integrate_packing = true;

  /// Plan-level cross-layer fusion (DESIGN.md §7): rewrite compiled
  /// `BinaryConv2d → MaxPool` step chains into one fused step whose conv
  /// epilogue applies the pool max (bitwise OR over conv output bytes) in
  /// registers and emits the pooled packed map directly — the full-size
  /// conv activation map is never written. Fuses only when the producing
  /// conv compiled to the fully fused path A and the pool windows are
  /// non-overlapping and gap-free (stride == size, size <= 3); other chains
  /// keep their separate steps. Off = every layer is its own step (the
  /// per-layer-attribution / ablation configuration).
  bool fuse_conv_pool = true;

  /// §VI-B: channel threshold above which packing runs as a separate kernel
  /// (private memory cannot hold the 8-filter working set).
  std::int64_t packing_channel_threshold = 256;

  /// §V-A.2: pick xor/popcount vector granularity per layer from the packed
  /// span its inner loop streams (the channel words of a filter row, or of
  /// a dense row). When false, `fixed_pack_width` is used everywhere.
  bool auto_pack_width = true;
  bitpack::PackWidth fixed_pack_width = bitpack::PackWidth::k64;

  /// Conv path policy (DESIGN.md §11): under kAuto the planner compares the
  /// modeled time of the window-streaming schedule against the bit-GEMM
  /// lowering per conv geometry and records the winner in the plan; kRowFused
  /// / kGemm force one side (the ablation / bench configuration). Path D is
  /// only ever eligible when the fused epilogue applies (fuse_bn_binarize &&
  /// integrate_packing && c_out % 8 == 0) — otherwise the A/B/C fallback
  /// rules decide exactly as before this option existed.
  ConvPathPreference conv_path = ConvPathPreference::kAuto;

  /// Weight-compression policy (DESIGN.md §12): kOff is byte-identical to
  /// the pre-compression engine; kLossless/kAuto store conv filter banks as
  /// dictionary + row indices + XOR deltas in v4 artifacts; kAuto also
  /// enables the partial-popcount reuse kernels where selection says the
  /// bank's redundancy wins. Off by default so existing artifacts, byte
  /// walks, and bench ablations are untouched.
  WeightCompress weight_compress = WeightCompress::kOff;

  /// §VI-A.1 vectorized load/store. Turning this off models scalar loads:
  /// worse effective bandwidth and extra per-access overhead.
  bool vectorized_loads = true;

  /// §V-A.1 data layout. kNCHW models the Caffe/Torch default for the layout
  /// ablation (bit packing then walks a strided channel dimension).
  Layout layout = Layout::kNHWC;

  friend bool operator==(const EngineOptions&, const EngineOptions&) =
      default;

  /// Resolves the pack width for a kernel streaming contiguous spans of
  /// `span_words` words: the width minimizing the per-span instruction
  /// count, tail included (select_pack_width_for_span), or the fixed width
  /// when per-layer selection is off.
  bitpack::PackWidth pack_width_for_span(std::int64_t span_words) const {
    return auto_pack_width ? bitpack::select_pack_width_for_span(span_words)
                           : fixed_pack_width;
  }

  /// Pack width of a conv's inner loop: keyed on the fused filter-row span
  /// `kw * words` it streams. Shared by the binary and bit-plane convs so
  /// their variant selection cannot drift.
  bitpack::PackWidth conv_pack_width(std::int64_t channels,
                                     std::int64_t kernel_w) const {
    return pack_width_for_span(kernel_w *
                               ceil_div(channels, bitpack::kWordBits));
  }
};

}  // namespace phonebit::core
