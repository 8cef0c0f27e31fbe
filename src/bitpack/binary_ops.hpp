// PhoneBit — binary dot-product primitives (Eqn 1 of the paper).
//
// The inner loops of every binary convolution/dense kernel reduce to
// "xor two packed spans and popcount", executed at a chosen vectorization
// granularity: the paper packs with OpenCL vector types from uchar (8-bit)
// up to ulong16 (1024-bit) and selects the kernel per layer (§V-A.2).
// The memory format is always 64-bit words; PackWidth selects how wide the
// *processing* vectors are, which is what the granularity ablation measures.
#pragma once

#include <cstdint>

#include "bitpack/packed_tensor.hpp"

namespace phonebit::bitpack {

/// Vectorization granularity for bit-wise kernels, in bits.
enum class PackWidth : int {
  k8 = 8,      ///< uchar
  k16 = 16,    ///< ushort
  k32 = 32,    ///< uint
  k64 = 64,    ///< ulong
  k128 = 128,  ///< ulong2
  k256 = 256,  ///< ulong4
  k512 = 512,  ///< ulong8
  k1024 = 1024 ///< ulong16 — the paper's widest granularity
};

/// Width in bits as an int.
constexpr int bits(PackWidth w) noexcept { return static_cast<int>(w); }

/// The paper selects "the optimal bit packing strategy and computing kernel
/// according to channel dimensions" (§V-A.2). The engine keys that choice
/// on the packed span a kernel streams, `span_words` 64-bit words (a conv's
/// filter row of kw*words words, a dense row, a GEMM panel row): the width
/// minimizing the per-span instruction count (full vectors + scalar tail
/// words), ties to the wider vector. The tail counts: a 12-word span runs
/// 3 exact ulong4 ops rather than one ulong8 op plus 4 scalar tail words.
/// Spans shorter than two words stay at 64 bits.
PackWidth select_pack_width_for_span(std::int64_t span_words) noexcept;

/// Caps `w` to the widest granularity whose lane count fits `span_words`
/// (floor one word): a vector wider than the whole span executes as the
/// 64-bit scalar tail loop, so cost models must not charge it at the wide
/// rate. Span-keyed selection never overshoots — only fixed-width
/// ablations hit the cap.
PackWidth cap_pack_width_to_span(PackWidth w,
                                 std::int64_t span_words) noexcept;

/// popcount(xor(a, b)) over `nwords` 64-bit words, processed at granularity
/// `w`. With the ±1 encoding this counts sign mismatches, so the Eqn-1 dot
/// is `len - 2 * xor_popcount(...)`.
std::int64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w);

/// popcount(and(a, b)) over `nwords` words at granularity `w`; used by the
/// 0/1 bit-plane first layer (Eqn 2).
std::int64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w);

/// Strided multi-span accumulate: popcount(xor) summed over `rows` spans of
/// `row_words` words each, where consecutive spans of `a` start `a_stride`
/// words apart and spans of `b` start `b_stride` words apart. In the
/// NHWC-packed layout one binary-conv window is exactly this shape — the kw
/// taps of a filter row are contiguous in both operands, so `a` walks kh
/// input rows (stride = image row pitch) against kh contiguous weight rows —
/// and the whole window reduces to ONE call instead of kh*kw short ones.
/// Wide granularities keep a vector lane accumulator across all rows and
/// reduce once at the end (simd::popcount_accumulate).
std::int64_t xor_popcount_2d(const std::uint64_t* a, std::int64_t a_stride,
                             const std::uint64_t* b, std::int64_t b_stride,
                             std::int64_t row_words, std::int64_t rows,
                             PackWidth w);

/// AND-flavoured strided multi-span accumulate — the same whole-window
/// reduction for the 0/1 bit-plane first layer (Eqn 2): one call covers all
/// kh rows of a plane window against the contiguous filter rows, lane
/// accumulator carried across rows.
std::int64_t and_popcount_2d(const std::uint64_t* a, std::int64_t a_stride,
                             const std::uint64_t* b, std::int64_t b_stride,
                             std::int64_t row_words, std::int64_t rows,
                             PackWidth w);

/// Shared-window schedule: xor_popcount_2d of ONE input window against the
/// 8 filters of a workload group in a single pass. Each input span is
/// loaded once per row and scored against all 8 weight streams (filter f's
/// rows start at `b + f*b_pitch`, strided `b_stride` apart), with one
/// mismatch accumulator per filter — instead of 8 independent window
/// passes each re-reading the same input spans. `out[f]` receives filter
/// f's mismatch count; results are bit-exact with 8 xor_popcount_2d calls.
/// Narrow granularities (< 128 bits) have no cross-row lane accumulator
/// and run the shared loop at word granularity.
void xor_popcount_2d_x8(const std::uint64_t* a, std::int64_t a_stride,
                        const std::uint64_t* b, std::int64_t b_pitch,
                        std::int64_t b_stride, std::int64_t row_words,
                        std::int64_t rows, PackWidth w, std::int64_t out[8]);

/// AND-flavoured shared-window schedule for the bit-plane first layer: one
/// pass over a 0/1 plane window scores the 8 filters of the group.
void and_popcount_2d_x8(const std::uint64_t* a, std::int64_t a_stride,
                        const std::uint64_t* b, std::int64_t b_pitch,
                        std::int64_t b_stride, std::int64_t row_words,
                        std::int64_t rows, PackWidth w, std::int64_t out[8]);

/// M-rows of one bit-GEMM register tile (the conv path-D microkernel).
inline constexpr int kGemmMr = 4;

/// Register-tiled bit-GEMM microkernel (DESIGN.md §11): scores up to
/// kGemmMr im2col rows of A (row r at `a + r * a_stride`, `k_words` long)
/// against the 8 contiguous weight panels of one filter group (filter f's
/// panel at `b + f * b_pitch`) in one pass over the K dimension. The
/// rows x 8 mismatch accumulators live in registers for the whole
/// reduction, so each k-word of A is loaded once per 8 filters and each
/// weight word once per `rows` outputs — `rows` + 8 loads feed rows*8
/// xor+popcount+add ops per K step, versus one load per op when windows
/// are streamed independently. `out[r * 8 + f]` receives row r's mismatch
/// count against filter f; bit-exact with rows*8 xor_popcount calls.
void xor_popcount_gemm_x8(const std::uint64_t* a, std::int64_t a_stride,
                          const std::uint64_t* b, std::int64_t b_pitch,
                          std::int64_t k_words, std::int64_t rows,
                          std::int64_t* out);

/// popcount(a) over `nwords` words.
std::int64_t popcount_words(const std::uint64_t* a, std::int64_t nwords);

/// Eqn 1: dot of two ±1 vectors of true length `len` stored in packed spans
/// (padding bits zero in both operands).
inline std::int64_t binary_dot(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t nwords, std::int64_t len,
                               PackWidth w = PackWidth::k64) {
  return len - 2 * xor_popcount(a, b, nwords, w);
}

/// Dot of a 0/1 bit-plane `p` against ±1 weights `wbits`:
/// sum_i p_i * w_i = 2*popcount(p & w) - popcount(p).
inline std::int64_t plane_dot(const std::uint64_t* p,
                              const std::uint64_t* wbits, std::int64_t nwords,
                              PackWidth w = PackWidth::k64) {
  return 2 * and_popcount(p, wbits, nwords, w) - popcount_words(p, nwords);
}

}  // namespace phonebit::bitpack
