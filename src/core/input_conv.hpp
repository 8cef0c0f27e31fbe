// PhoneBit — first-layer convolution over 8-bit integer input (Eqn 2).
//
// Camera images are not binary, so the first conv splits each 8-bit input
// into 8 bit-planes I_k and accumulates s = sum_k 2^k <I_k * W> where <>
// is a binary convolution of the 0/1 plane against ±1 weights:
//   sum_i p_i w_i = 2*popcount(p AND w) - popcount(p).
// The weight-independent popcount term equals the window's integer pixel
// sum, so it is hoisted out of the per-filter loop. BN + binarization fuse
// at the end exactly as in BinaryConv2d. This 8x plane overhead is why the
// paper's Fig. 5 shows conv1 gaining only ~23x vs ~45x for middle layers.
//
// Row fusion applies per plane exactly as in BinaryConv2d (DESIGN.md §4):
// the kw taps of one filter row are contiguous in both the 0/1 plane and
// the weights, so an interior window is ONE strided and_popcount per plane
// and border windows clamp each filter row to its in-bounds run — a padded
// tap ANDs against an all-zero plane and contributes nothing, so the border
// path needs no zeros span at all. The 8 bit planes live in the session arena (planned scratch), not in
// per-forward heap allocations.
#pragma once

#include <string>
#include <vector>

#include "bitpack/packed_tensor.hpp"
#include "core/bn_fold.hpp"
#include "core/layer.hpp"
#include "core/plan.hpp"

namespace phonebit::core {

class InputConv2d final : public Layer {
 public:
  /// `weights`: packed (C_out, KH, KW, C_in) sign-binarized filters.
  InputConv2d(std::string name, bitpack::PackedTensor weights,
              std::vector<BatchNormParams> bn, std::vector<float> bias,
              ConvGeometry geom);

  const std::string& name() const override { return name_; }

  /// Input blob must be a U8Tensor (the decoded image). Output is packed.
  Blob forward(ExecContext& ctx, const Blob& in) const override;
  void plan(PlanContext& pc) const override;
  Blob run(ExecContext& ctx, const Blob& in,
           const PlanStep& step) const override;

  std::int64_t param_bytes() const override;
  std::int64_t param_count() const override;

  const ConvGeometry& geometry() const noexcept { return geom_; }
  std::int64_t out_channels() const noexcept { return weights_.shape().n; }
  std::int64_t in_channels() const noexcept { return weights_.shape().c; }
  const bitpack::PackedTensor& weights() const noexcept { return weights_; }
  const FoldedBatchNorm& folded_bn() const noexcept { return folded_; }
  const std::vector<BatchNormParams>& raw_bn() const noexcept { return bn_; }
  const std::vector<float>& bias() const noexcept { return bias_; }

 private:
  KernelVariant select_variant(const Shape& in_shape,
                               const EngineOptions& opts) const;
  const U8Tensor& checked_input(const Blob& in) const;
  /// Arena words needed for the 8 bit planes.
  std::int64_t scratch_words(const Shape& in_shape) const;
  bitpack::PackedTensor execute(ExecContext& ctx, const U8Tensor& image,
                                const KernelVariant& v) const;

  std::string name_;
  bitpack::PackedTensor weights_;
  std::vector<BatchNormParams> bn_;
  std::vector<float> bias_;
  FoldedBatchNorm folded_;
  ConvGeometry geom_;
};

}  // namespace phonebit::core
