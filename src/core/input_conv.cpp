#include "core/input_conv.hpp"

#include <algorithm>
#include <array>

#include "bitpack/binary_ops.hpp"
#include "bitpack/pack.hpp"
#include "core/binarize.hpp"
#include "core/costs.hpp"

namespace phonebit::core {

using bitpack::PackedTensor;
using oclsim::KernelCost;
using oclsim::NDRange;
using oclsim::WorkItem;

InputConv2d::InputConv2d(std::string name, PackedTensor weights,
                         std::vector<BatchNormParams> bn,
                         std::vector<float> bias, ConvGeometry geom)
    : name_(std::move(name)), weights_(std::move(weights)), bn_(std::move(bn)),
      bias_(std::move(bias)), geom_(geom) {
  PB_CHECK(static_cast<std::int64_t>(bn_.size()) == weights_.shape().n,
           name_ << ": BN channel count mismatch");
  PB_CHECK(weights_.shape().h == geom_.kernel_h &&
               weights_.shape().w == geom_.kernel_w,
           name_ << ": filter bank spatial dims disagree with geometry");
  folded_ = fold_batch_norm(bn_, bias_);
}

std::int64_t InputConv2d::param_bytes() const {
  const std::int64_t c_out = weights_.shape().n;
  return weights_.bytes() + c_out * 4 + ceil_div(c_out, 8);
}

std::int64_t InputConv2d::param_count() const {
  const Shape& s = weights_.shape();
  return s.n * s.h * s.w * s.c + 5 * s.n;
}

const U8Tensor& InputConv2d::checked_input(const Blob& in) const {
  const auto* image = std::get_if<U8Tensor>(&in);
  PB_CHECK(image != nullptr, name_ << ": input conv expects an 8-bit image");
  PB_CHECK(image->shape().c == in_channels(),
           name_ << ": image has " << image->shape().c
                 << " channels, filter expects " << in_channels());
  return *image;
}

KernelVariant InputConv2d::select_variant(const Shape& in_shape,
                                         const EngineOptions& opts) const {
  KernelVariant v;
  v.pack_width = opts.conv_pack_width(in_shape.c, geom_.kernel_w);
  v.kernel = "bitplane_split+conv_fused";
  return v;
}

std::int64_t InputConv2d::scratch_words(const Shape& in_shape) const {
  // The 8 bit planes. The border path never reads padding: AND against a
  // zero plane contributes nothing, so out-of-bounds taps are skipped.
  return in_shape.n * in_shape.h * in_shape.w *
         ceil_div(in_shape.c, bitpack::kWordBits) * 8;
}

void InputConv2d::plan(PlanContext& pc) const {
  const BlobDesc& in = pc.in();
  PB_CHECK(in.kind == BlobKind::kU8,
           name_ << ": input conv expects an 8-bit image, got " << in.str());
  PB_CHECK(in.shape.c == in_channels(),
           name_ << ": image has " << in.shape.c
                 << " channels, filter expects " << in_channels());
  PB_CHECK(out_channels() % 8 == 0, name_ << ": C_out must be a multiple of 8");
  const std::int64_t oh = geom_.out_h(in.shape.h);
  const std::int64_t ow = geom_.out_w(in.shape.w);
  KernelVariant v = select_variant(in.shape, pc.opts());
  pc.need_words(scratch_words(in.shape));
  pc.select(std::move(v));
  pc.produce(BlobDesc{BlobKind::kPacked,
                      Shape{in.shape.n, oh, ow, out_channels()}});
}

Blob InputConv2d::forward(ExecContext& ctx, const Blob& in) const {
  const U8Tensor& image = checked_input(in);
  if (ctx.stats != nullptr) ++ctx.stats->variant_selections;
  return execute(ctx, image, select_variant(image.shape(), ctx.opts));
}

Blob InputConv2d::run(ExecContext& ctx, const Blob& in,
                      const PlanStep& step) const {
  return execute(ctx, checked_input(in), step.variant);
}

PackedTensor InputConv2d::execute(ExecContext& ctx, const U8Tensor& image,
                                  const KernelVariant& v) const {
  const Shape& is = image.shape();
  const std::int64_t oh = geom_.out_h(is.h);
  const std::int64_t ow = geom_.out_w(is.w);
  const std::int64_t c_out = out_channels();
  const std::int64_t kh = geom_.kernel_h, kw = geom_.kernel_w;
  const std::int64_t sh = geom_.stride_h, sw = geom_.stride_w;
  const std::int64_t ph = geom_.pad_h, pw_pad = geom_.pad_w;
  const std::int64_t words = ceil_div(is.c, bitpack::kWordBits);
  const auto pw = v.pack_width;

  // The 8 bit planes live in the session arena (one contiguous words-pool
  // span — a single request, honouring the one-live-span-per-kind
  // contract).
  const std::int64_t plane_words = is.n * is.h * is.w * words;
  // Cascade reuse seam: a caller-attached plane cache replaces the arena
  // span. A filled cache over the same geometry short-circuits the split
  // kernel entirely (deterministically cheaper modeled time); an empty or
  // stale one is (re)filled by the split kernel at the normal cost.
  InputPlaneCache* cache = ctx.planes;
  const bool cache_hit =
      cache != nullptr && cache->filled && cache->shape == is;
  std::uint64_t* planes = nullptr;
  if (cache != nullptr) {
    if (!cache_hit) {
      cache->words.resize(static_cast<std::size_t>(plane_words) * 8);
      cache->shape = is;
      cache->filled = false;
    }
    planes = cache->words.data();
  } else {
    planes = ctx.arena.words(scratch_words(is));
  }
  const std::int64_t row_pitch = is.w * words;  // plane words per image row
  const auto plane_span = [planes, plane_words, row_pitch, words,
                           &is](int k, std::int64_t n, std::int64_t iy,
                                std::int64_t ix) -> const std::uint64_t* {
    return planes + k * plane_words + (n * is.h + iy) * row_pitch + ix * words;
  };

  // Kernel 1: bit-plane split (one work item per pixel owns all its words,
  // so plane words are written race-free). Skipped outright on a plane-cache
  // hit — the planes are a pure function of the input bytes.
  if (!cache_hit) {
    KernelCost split_cost;
    split_cost.scalar_ops = static_cast<double>(is.elems()) * 8.0;
    split_cost.bytes_read = static_cast<double>(is.elems());
    split_cost.bytes_written = static_cast<double>(plane_words) * 8.0 * 8.0;
    split_cost.coalescing = costs::coalescing(ctx.opts);
    split_cost.alu_efficiency = costs::kAuxKernelEff;
    ctx.queue.enqueue(
        name_ + ".bitplane_split", NDRange{is.w, is.h, is.n}, split_cost,
        [&, words](const WorkItem& it) {
          for (std::int64_t j = 0; j < words; ++j) {
            std::array<std::uint64_t, 8> acc{};
            const std::int64_t c0 = j * bitpack::kWordBits;
            const std::int64_t limit =
                std::min<std::int64_t>(bitpack::kWordBits, is.c - c0);
            for (std::int64_t b = 0; b < limit; ++b) {
              const std::uint8_t px = image(it.z, it.y, it.x, c0 + b);
              for (int k = 0; k < 8; ++k) {
                if ((px >> k) & 1) {
                  acc[static_cast<std::size_t>(k)] |= (std::uint64_t{1} << b);
                }
              }
            }
            std::uint64_t* base =
                planes + (it.z * is.h + it.y) * row_pitch + it.x * words + j;
            for (int k = 0; k < 8; ++k) {
              base[k * plane_words] = acc[static_cast<std::size_t>(k)];
            }
          }
        });
    if (cache != nullptr) cache->filled = true;
  }

  // Kernel 2: fused plane conv + BN + binarize + pack (Fig. 4 workload:
  // 8 filters per item when C_out allows).
  PB_CHECK(c_out % 8 == 0, name_ << ": C_out must be a multiple of 8");
  PackedTensor out = ctx.make_packed(Shape{is.n, oh, ow, c_out});
  const std::int64_t groups = c_out / 8;
  const bool branch_free = ctx.opts.branch_free_binarize;
  const FoldedBatchNorm& fb = folded_;

  // Interior output box: same shared geometry as the binary conv.
  const InteriorBox box = interior_box(geom_, is.h, is.w, oh, ow);
  const std::int64_t y0 = box.y0, y1 = box.y1, x0 = box.x0, x1 = box.x1;

  // Row-fused schedule: per plane, an interior window is kh spans of
  // kw*words words (one strided and_popcount with a scalar tail, so the
  // exact word bits are charged); the hoisted window sum adds kh popcount
  // spans per plane per output pixel. The filter-side spans run the
  // shared-window schedule (and_popcount_2d_x8): each plane span is loaded
  // once per group and scored against all 8 filters, so its setup
  // amortizes 8x (costs::shared_window_spans).
  KernelCost cost;
  const double outputs = static_cast<double>(is.n) * oh * ow * c_out;
  const double opixels = static_cast<double>(is.n) * oh * ow;
  const double row_bits = static_cast<double>(kw * words * bitpack::kWordBits);
  cost.bitop_bits = outputs * 8.0 * 2.0 * static_cast<double>(kh) * row_bits;
  cost.span_count =
      outputs * 8.0 * costs::shared_window_spans(static_cast<double>(kh)) +
      opixels * 8.0 * static_cast<double>(kh);
  cost.span_setup_cycles = costs::kSpanSetupCycles;
  cost.instr_overhead_cycles = costs::instr_overhead_fused(ctx.opts);
  cost.pack_width_bits =
      bitpack::bits(bitpack::cap_pack_width_to_span(pw, kw * words));
  cost.scalar_ops = outputs * (8.0 + 4.0);
  cost.bytes_read = static_cast<double>(plane_words) * 8.0 * 8.0 +
                    static_cast<double>(weights_.bytes());
  cost.bytes_written = static_cast<double>(out.bytes());
  cost.coalescing = costs::coalescing(ctx.opts);
  cost.alu_efficiency = costs::binary_kernel_eff(ctx.opts);

  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out.data());
  ctx.queue.enqueue(
      name_ + ".bitplane_conv_fused", NDRange{ow, oh, is.n * groups}, cost,
      [&, kh, kw, sh, sw, ph, pw_pad, words, groups, branch_free, pw, y0, y1,
       x0, x1, row_pitch](const WorkItem& it) {
        const std::int64_t n = it.z / groups;
        const std::int64_t g = it.z % groups;
        const std::int64_t iy0 = it.y * sh - ph;
        const std::int64_t ix0 = it.x * sw - pw_pad;
        const bool interior =
            it.y >= y0 && it.y < y1 && it.x >= x0 && it.x < x1;
        // Border rows clamp each filter row to its in-bounds tap run; the
        // 0/1 planes make padding free (AND against zero contributes 0).
        const std::int64_t lo = std::clamp<std::int64_t>(-ix0, 0, kw);
        const std::int64_t hi = std::clamp<std::int64_t>(is.w - ix0, 0, kw);

        // Hoisted weight-independent term: integer pixel sum of the window.
        std::int64_t window_sum = 0;
        if (interior) {
          for (int k = 0; k < 8; ++k) {
            std::int64_t bits_set = 0;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              bits_set += bitpack::popcount_words(
                  plane_span(k, n, iy0 + ky, ix0), kw * words);
            }
            window_sum += (std::int64_t{1} << k) * bits_set;
          }
        } else {
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= is.h || hi <= lo) continue;
            for (int k = 0; k < 8; ++k) {
              window_sum += (std::int64_t{1} << k) *
                            bitpack::popcount_words(
                                plane_span(k, n, iy, ix0 + lo),
                                (hi - lo) * words);
            }
          }
        }

        std::int64_t weighted[8] = {};
        if (interior) {
          // Shared-window schedule: each plane's whole-window span set is
          // streamed ONCE and scored against the 8 contiguous filters of
          // the group (and_popcount_2d_x8) — kh plane rows (pitch
          // row_pitch) against kh contiguous filter rows, instead of the 8
          // filters each re-reading the same plane spans.
          for (int k = 0; k < 8; ++k) {
            std::int64_t adds[8];
            bitpack::and_popcount_2d_x8(
                plane_span(k, n, iy0, ix0), row_pitch,
                weights_.pixel(g * 8, 0, 0), kh * kw * words, kw * words,
                kw * words, kh, pw, adds);
            for (int f = 0; f < 8; ++f) {
              weighted[f] += (std::int64_t{1} << k) * adds[f];
            }
          }
        } else {
          for (int f = 0; f < 8; ++f) {
            const std::int64_t co = g * 8 + f;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= is.h || hi <= lo) continue;
              const std::uint64_t* wrow = weights_.pixel(co, ky, 0);
              for (int k = 0; k < 8; ++k) {
                weighted[f] +=
                    (std::int64_t{1} << k) *
                    bitpack::and_popcount(plane_span(k, n, iy, ix0 + lo),
                                          wrow + lo * words, (hi - lo) * words,
                                          pw);
              }
            }
          }
        }
        std::uint8_t byte = 0;
        for (int f = 0; f < 8; ++f) {
          // s = sum_k 2^k (2*popcount(p&w) - popcount(p))  (Eqn 2)
          const float x1v = static_cast<float>(2 * weighted[f] - window_sum);
          const std::size_t ci = static_cast<std::size_t>(g * 8 + f);
          const bool bit =
              branch_free
                  ? binarize_eqn9(x1v, fb.xi[ci], fb.gamma_pos[ci] != 0)
                  : binarize_eqn8(x1v, fb.xi[ci], fb.gamma_pos[ci] != 0);
          if (bit) byte = static_cast<std::uint8_t>(byte | (1u << f));
        }
        out_bytes[out.word_offset(n, it.y, it.x, 0) * 8 + g] = byte;
      });
  return out;
}

}  // namespace phonebit::core
