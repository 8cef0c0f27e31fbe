#include "bitpack/binary_ops.hpp"

#include <cstring>

#include "common/error.hpp"
#include "simd/vec.hpp"

namespace phonebit::bitpack {
namespace {

// Narrow-granularity kernels view the 64-bit words as byte/short/int lanes;
// wide-granularity kernels process ulongN vectors with a scalar tail.

template <typename Lane>
std::int64_t xor_popcount_narrow(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 std::int64_t nwords) {
  const auto* pa = reinterpret_cast<const Lane*>(a);
  const auto* pb = reinterpret_cast<const Lane*>(b);
  const std::int64_t n = nwords * static_cast<std::int64_t>(8 / sizeof(Lane));
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    total += popcount(static_cast<Lane>(pa[i] ^ pb[i]));
  }
  return total;
}

template <typename Lane>
std::int64_t and_popcount_narrow(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 std::int64_t nwords) {
  const auto* pa = reinterpret_cast<const Lane*>(a);
  const auto* pb = reinterpret_cast<const Lane*>(b);
  const std::int64_t n = nwords * static_cast<std::int64_t>(8 / sizeof(Lane));
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    total += popcount(static_cast<Lane>(pa[i] & pb[i]));
  }
  return total;
}

// Wide kernels accumulate popcounts lane-wise (simd::popcount_accumulate)
// and reduce once per span, keeping the horizontal add out of the loop.
template <int Lanes>
std::int64_t xor_popcount_wide(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t nwords) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc{};
  std::int64_t tail = 0;
  std::int64_t i = 0;
  for (; i + Lanes <= nwords; i += Lanes) {
    const V va = simd::vload<std::uint64_t, Lanes>(0, a + i);
    const V vb = simd::vload<std::uint64_t, Lanes>(0, b + i);
    simd::popcount_accumulate(acc, va ^ vb);
  }
  for (; i < nwords; ++i) tail += popcount(a[i] ^ b[i]);
  return simd::reduce_add(acc) + tail;
}

/// Whole-window kernel: `rows` strided spans of `row_words` words, the lane
/// accumulator carried across every row and reduced once at the very end.
template <int Lanes>
std::int64_t xor_popcount_2d_wide(const std::uint64_t* a,
                                  std::int64_t a_stride,
                                  const std::uint64_t* b,
                                  std::int64_t b_stride,
                                  std::int64_t row_words, std::int64_t rows) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc{};
  std::int64_t tail = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint64_t* pa = a + r * a_stride;
    const std::uint64_t* pb = b + r * b_stride;
    std::int64_t i = 0;
    for (; i + Lanes <= row_words; i += Lanes) {
      const V va = simd::vload<std::uint64_t, Lanes>(0, pa + i);
      const V vb = simd::vload<std::uint64_t, Lanes>(0, pb + i);
      simd::popcount_accumulate(acc, va ^ vb);
    }
    for (; i < row_words; ++i) tail += popcount(pa[i] ^ pb[i]);
  }
  return simd::reduce_add(acc) + tail;
}

/// AND-flavoured whole-window kernel (the bit-plane first layer's fused
/// inner loop): identical schedule to xor_popcount_2d_wide.
template <int Lanes>
std::int64_t and_popcount_2d_wide(const std::uint64_t* a,
                                  std::int64_t a_stride,
                                  const std::uint64_t* b,
                                  std::int64_t b_stride,
                                  std::int64_t row_words, std::int64_t rows) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc{};
  std::int64_t tail = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint64_t* pa = a + r * a_stride;
    const std::uint64_t* pb = b + r * b_stride;
    std::int64_t i = 0;
    for (; i + Lanes <= row_words; i += Lanes) {
      const V va = simd::vload<std::uint64_t, Lanes>(0, pa + i);
      const V vb = simd::vload<std::uint64_t, Lanes>(0, pb + i);
      simd::popcount_accumulate(acc, va & vb);
    }
    for (; i < row_words; ++i) tail += popcount(pa[i] & pb[i]);
  }
  return simd::reduce_add(acc) + tail;
}

// Shared-window kernels: one pass over the input window spans scores the 8
// filters of a workload group. The input vector is loaded once per chunk
// and reused across the 8 weight streams (the compiler keeps it in a
// register), so the group pays 9 loads per chunk instead of 16 and one loop
// prologue per row instead of 8.
template <int Lanes, bool And>
void popcount_2d_x8_wide(const std::uint64_t* a, std::int64_t a_stride,
                         const std::uint64_t* b, std::int64_t b_pitch,
                         std::int64_t b_stride, std::int64_t row_words,
                         std::int64_t rows, std::int64_t out[8]) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc[8]{};
  std::int64_t tail[8] = {};
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint64_t* pa = a + r * a_stride;
    const std::uint64_t* pb = b + r * b_stride;
    std::int64_t i = 0;
    for (; i + Lanes <= row_words; i += Lanes) {
      const V va = simd::vload<std::uint64_t, Lanes>(0, pa + i);
      for (int f = 0; f < 8; ++f) {
        const V vb = simd::vload<std::uint64_t, Lanes>(0, pb + f * b_pitch + i);
        simd::popcount_accumulate(acc[f], And ? va & vb : va ^ vb);
      }
    }
    for (; i < row_words; ++i) {
      const std::uint64_t wa = pa[i];
      for (int f = 0; f < 8; ++f) {
        const std::uint64_t wb = pb[f * b_pitch + i];
        tail[f] += popcount(And ? wa & wb : wa ^ wb);
      }
    }
  }
  for (int f = 0; f < 8; ++f) out[f] = simd::reduce_add(acc[f]) + tail[f];
}

// Word-granularity shared-window loop for the narrow widths (no lane
// accumulator to carry; the sharing of the input load is the whole point).
template <bool And>
void popcount_2d_x8_words(const std::uint64_t* a, std::int64_t a_stride,
                          const std::uint64_t* b, std::int64_t b_pitch,
                          std::int64_t b_stride, std::int64_t row_words,
                          std::int64_t rows, std::int64_t out[8]) {
  std::int64_t acc[8] = {};
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint64_t* pa = a + r * a_stride;
    const std::uint64_t* pb = b + r * b_stride;
    for (std::int64_t i = 0; i < row_words; ++i) {
      const std::uint64_t wa = pa[i];
      for (int f = 0; f < 8; ++f) {
        const std::uint64_t wb = pb[f * b_pitch + i];
        acc[f] += popcount(And ? wa & wb : wa ^ wb);
      }
    }
  }
  for (int f = 0; f < 8; ++f) out[f] = acc[f];
}

template <bool And>
void popcount_2d_x8(const std::uint64_t* a, std::int64_t a_stride,
                    const std::uint64_t* b, std::int64_t b_pitch,
                    std::int64_t b_stride, std::int64_t row_words,
                    std::int64_t rows, PackWidth w, std::int64_t out[8]) {
  PB_CHECK(row_words >= 0 && rows >= 0, "negative span geometry");
  switch (w) {
    case PackWidth::k128:
      return popcount_2d_x8_wide<2, And>(a, a_stride, b, b_pitch, b_stride,
                                         row_words, rows, out);
    case PackWidth::k256:
      return popcount_2d_x8_wide<4, And>(a, a_stride, b, b_pitch, b_stride,
                                         row_words, rows, out);
    case PackWidth::k512:
      return popcount_2d_x8_wide<8, And>(a, a_stride, b, b_pitch, b_stride,
                                         row_words, rows, out);
    case PackWidth::k1024:
      return popcount_2d_x8_wide<16, And>(a, a_stride, b, b_pitch, b_stride,
                                          row_words, rows, out);
    default:
      return popcount_2d_x8_words<And>(a, a_stride, b, b_pitch, b_stride,
                                       row_words, rows, out);
  }
}

template <int Lanes>
std::int64_t and_popcount_wide(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t nwords) {
  using V = simd::vec<std::uint64_t, Lanes>;
  V acc{};
  std::int64_t tail = 0;
  std::int64_t i = 0;
  for (; i + Lanes <= nwords; i += Lanes) {
    const V va = simd::vload<std::uint64_t, Lanes>(0, a + i);
    const V vb = simd::vload<std::uint64_t, Lanes>(0, b + i);
    simd::popcount_accumulate(acc, va & vb);
  }
  for (; i < nwords; ++i) tail += popcount(a[i] & b[i]);
  return simd::reduce_add(acc) + tail;
}

}  // namespace

PackWidth select_pack_width_for_span(std::int64_t span_words) noexcept {
  // instrs(W) = floor(span/lanes) vector ops + (span % lanes) scalar tail
  // ops; sub-word granularities only split words into more instructions, so
  // candidates start at one word. Widths whose lane count overshoots the
  // whole span never issue a vector op and are skipped.
  PackWidth best = PackWidth::k64;
  std::int64_t best_instrs = span_words;
  for (const PackWidth w : {PackWidth::k128, PackWidth::k256, PackWidth::k512,
                            PackWidth::k1024}) {
    const std::int64_t lanes = bits(w) / static_cast<int>(kWordBits);
    if (lanes > span_words) break;
    const std::int64_t instrs = span_words / lanes + span_words % lanes;
    if (instrs <= best_instrs) {
      best = w;
      best_instrs = instrs;
    }
  }
  return best;
}

PackWidth cap_pack_width_to_span(PackWidth w,
                                 std::int64_t span_words) noexcept {
  while (bits(w) / static_cast<int>(kWordBits) > span_words &&
         w != PackWidth::k64) {
    w = static_cast<PackWidth>(bits(w) / 2);
  }
  return w;
}

std::int64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w) {
  PB_CHECK(nwords >= 0, "negative word count");
  switch (w) {
    case PackWidth::k8:
      return xor_popcount_narrow<std::uint8_t>(a, b, nwords);
    case PackWidth::k16:
      return xor_popcount_narrow<std::uint16_t>(a, b, nwords);
    case PackWidth::k32:
      return xor_popcount_narrow<std::uint32_t>(a, b, nwords);
    case PackWidth::k64: {
      std::int64_t total = 0;
      for (std::int64_t i = 0; i < nwords; ++i) total += popcount(a[i] ^ b[i]);
      return total;
    }
    case PackWidth::k128:
      return xor_popcount_wide<2>(a, b, nwords);
    case PackWidth::k256:
      return xor_popcount_wide<4>(a, b, nwords);
    case PackWidth::k512:
      return xor_popcount_wide<8>(a, b, nwords);
    case PackWidth::k1024:
      return xor_popcount_wide<16>(a, b, nwords);
  }
  throw InvalidArgument("unknown pack width");
}

std::int64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords, PackWidth w) {
  PB_CHECK(nwords >= 0, "negative word count");
  switch (w) {
    case PackWidth::k8:
      return and_popcount_narrow<std::uint8_t>(a, b, nwords);
    case PackWidth::k16:
      return and_popcount_narrow<std::uint16_t>(a, b, nwords);
    case PackWidth::k32:
      return and_popcount_narrow<std::uint32_t>(a, b, nwords);
    case PackWidth::k64: {
      std::int64_t total = 0;
      for (std::int64_t i = 0; i < nwords; ++i) total += popcount(a[i] & b[i]);
      return total;
    }
    case PackWidth::k128:
      return and_popcount_wide<2>(a, b, nwords);
    case PackWidth::k256:
      return and_popcount_wide<4>(a, b, nwords);
    case PackWidth::k512:
      return and_popcount_wide<8>(a, b, nwords);
    case PackWidth::k1024:
      return and_popcount_wide<16>(a, b, nwords);
  }
  throw InvalidArgument("unknown pack width");
}

std::int64_t xor_popcount_2d(const std::uint64_t* a, std::int64_t a_stride,
                             const std::uint64_t* b, std::int64_t b_stride,
                             std::int64_t row_words, std::int64_t rows,
                             PackWidth w) {
  PB_CHECK(row_words >= 0 && rows >= 0, "negative span geometry");
  switch (w) {
    case PackWidth::k128:
      return xor_popcount_2d_wide<2>(a, a_stride, b, b_stride, row_words,
                                     rows);
    case PackWidth::k256:
      return xor_popcount_2d_wide<4>(a, a_stride, b, b_stride, row_words,
                                     rows);
    case PackWidth::k512:
      return xor_popcount_2d_wide<8>(a, a_stride, b, b_stride, row_words,
                                     rows);
    case PackWidth::k1024:
      return xor_popcount_2d_wide<16>(a, a_stride, b, b_stride, row_words,
                                      rows);
    default: {
      // Narrow granularities have no cross-row accumulator to carry; reuse
      // the per-span kernels row by row.
      std::int64_t total = 0;
      for (std::int64_t r = 0; r < rows; ++r) {
        total += xor_popcount(a + r * a_stride, b + r * b_stride, row_words,
                              w);
      }
      return total;
    }
  }
}

std::int64_t and_popcount_2d(const std::uint64_t* a, std::int64_t a_stride,
                             const std::uint64_t* b, std::int64_t b_stride,
                             std::int64_t row_words, std::int64_t rows,
                             PackWidth w) {
  PB_CHECK(row_words >= 0 && rows >= 0, "negative span geometry");
  switch (w) {
    case PackWidth::k128:
      return and_popcount_2d_wide<2>(a, a_stride, b, b_stride, row_words,
                                     rows);
    case PackWidth::k256:
      return and_popcount_2d_wide<4>(a, a_stride, b, b_stride, row_words,
                                     rows);
    case PackWidth::k512:
      return and_popcount_2d_wide<8>(a, a_stride, b, b_stride, row_words,
                                     rows);
    case PackWidth::k1024:
      return and_popcount_2d_wide<16>(a, a_stride, b, b_stride, row_words,
                                      rows);
    default: {
      // Narrow granularities have no cross-row accumulator to carry; reuse
      // the per-span kernels row by row.
      std::int64_t total = 0;
      for (std::int64_t r = 0; r < rows; ++r) {
        total += and_popcount(a + r * a_stride, b + r * b_stride, row_words,
                              w);
      }
      return total;
    }
  }
}

void xor_popcount_2d_x8(const std::uint64_t* a, std::int64_t a_stride,
                        const std::uint64_t* b, std::int64_t b_pitch,
                        std::int64_t b_stride, std::int64_t row_words,
                        std::int64_t rows, PackWidth w, std::int64_t out[8]) {
  popcount_2d_x8<false>(a, a_stride, b, b_pitch, b_stride, row_words, rows, w,
                        out);
}

void and_popcount_2d_x8(const std::uint64_t* a, std::int64_t a_stride,
                        const std::uint64_t* b, std::int64_t b_pitch,
                        std::int64_t b_stride, std::int64_t row_words,
                        std::int64_t rows, PackWidth w, std::int64_t out[8]) {
  popcount_2d_x8<true>(a, a_stride, b, b_pitch, b_stride, row_words, rows, w,
                       out);
}

namespace {

/// One MRx8 register tile with a compile-time row count, so the accumulator
/// block is a true register array (no variable indexing in the hot loop).
/// 32-bit accumulators suffice: a tile's mismatch count is bounded by
/// k_words * 64, far under 2^31 for any real layer.
template <int Rows>
void gemm_tile(const std::uint64_t* a, std::int64_t a_stride,
               const std::uint64_t* b, std::int64_t b_pitch,
               std::int64_t k_words, std::int64_t* out) {
  std::int32_t acc[Rows][8] = {};
  for (std::int64_t k = 0; k < k_words; ++k) {
    std::uint64_t aw[Rows];
    for (int r = 0; r < Rows; ++r) aw[r] = a[r * a_stride + k];
    for (int f = 0; f < 8; ++f) {
      const std::uint64_t bw = b[f * b_pitch + k];
      for (int r = 0; r < Rows; ++r) {
        acc[r][f] += static_cast<std::int32_t>(popcount(aw[r] ^ bw));
      }
    }
  }
  for (int r = 0; r < Rows; ++r) {
    for (int f = 0; f < 8; ++f) out[r * 8 + f] = acc[r][f];
  }
}

}  // namespace

void xor_popcount_gemm_x8(const std::uint64_t* a, std::int64_t a_stride,
                          const std::uint64_t* b, std::int64_t b_pitch,
                          std::int64_t k_words, std::int64_t rows,
                          std::int64_t* out) {
  PB_CHECK(k_words >= 0 && rows >= 1 && rows <= kGemmMr,
           "bad GEMM tile geometry");
  switch (rows) {
    case 1: return gemm_tile<1>(a, a_stride, b, b_pitch, k_words, out);
    case 2: return gemm_tile<2>(a, a_stride, b, b_pitch, k_words, out);
    case 3: return gemm_tile<3>(a, a_stride, b, b_pitch, k_words, out);
    default: return gemm_tile<4>(a, a_stride, b, b_pitch, k_words, out);
  }
}

std::int64_t popcount_words(const std::uint64_t* a, std::int64_t nwords) {
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < nwords; ++i) total += popcount(a[i]);
  return total;
}

}  // namespace phonebit::bitpack
