// Binary dot-product primitives: Eqn 1 and the bit-plane identity, across
// every vectorization granularity.
#include <gtest/gtest.h>

#include <vector>

#include "bitpack/binary_ops.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"

namespace phonebit {
namespace {

using bitpack::PackWidth;

std::vector<std::uint64_t> random_words(std::int64_t n, std::uint64_t seed,
                                        std::int64_t valid_bits) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  std::int64_t bits_left = valid_bits;
  for (auto& w : v) {
    w = rng();
    if (bits_left < 64) w &= low_mask<std::uint64_t>(static_cast<int>(bits_left));
    bits_left = std::max<std::int64_t>(0, bits_left - 64);
  }
  return v;
}

/// Scalar ground truth for the ±1 dot product.
std::int64_t dot_reference(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b,
                           std::int64_t len) {
  std::int64_t dot = 0;
  for (std::int64_t i = 0; i < len; ++i) {
    const bool ba = get_bit(a[static_cast<std::size_t>(i / 64)],
                            static_cast<int>(i % 64));
    const bool bb = get_bit(b[static_cast<std::size_t>(i / 64)],
                            static_cast<int>(i % 64));
    dot += (ba == bb) ? 1 : -1;
  }
  return dot;
}

class PackWidthParam : public ::testing::TestWithParam<PackWidth> {};

TEST_P(PackWidthParam, Eqn1HoldsForRandomVectors) {
  const PackWidth pw = GetParam();
  for (const std::int64_t len : {1, 3, 63, 64, 65, 127, 192, 300, 1024, 2050}) {
    const std::int64_t nwords = ceil_div(len, 64);
    const auto a = random_words(nwords, 100 + static_cast<std::uint64_t>(len),
                                len);
    const auto b = random_words(nwords, 200 + static_cast<std::uint64_t>(len),
                                len);
    const std::int64_t got =
        bitpack::binary_dot(a.data(), b.data(), nwords, len, pw);
    EXPECT_EQ(got, dot_reference(a, b, len))
        << "len=" << len << " width=" << bits(pw);
  }
}

TEST_P(PackWidthParam, XorPopcountMatches64BitBaseline) {
  const PackWidth pw = GetParam();
  const std::int64_t nwords = 37;
  const auto a = random_words(nwords, 1, nwords * 64);
  const auto b = random_words(nwords, 2, nwords * 64);
  EXPECT_EQ(bitpack::xor_popcount(a.data(), b.data(), nwords, pw),
            bitpack::xor_popcount(a.data(), b.data(), nwords, PackWidth::k64));
  EXPECT_EQ(bitpack::and_popcount(a.data(), b.data(), nwords, pw),
            bitpack::and_popcount(a.data(), b.data(), nwords, PackWidth::k64));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackWidthParam,
                         ::testing::Values(PackWidth::k8, PackWidth::k16,
                                           PackWidth::k32, PackWidth::k64,
                                           PackWidth::k128, PackWidth::k256,
                                           PackWidth::k512, PackWidth::k1024));

TEST(BitOps, PlaneDotIdentity) {
  // sum p_i w_i with p in {0,1}, w in {-1,+1} == 2*pc(p&w) - pc(p).
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t len = 1 + static_cast<std::int64_t>(rng.below(300));
    const std::int64_t nwords = ceil_div(len, 64);
    const auto p = random_words(nwords, 300 + trial, len);
    const auto w = random_words(nwords, 400 + trial, len);
    std::int64_t ref = 0;
    for (std::int64_t i = 0; i < len; ++i) {
      const bool pi = get_bit(p[static_cast<std::size_t>(i / 64)],
                              static_cast<int>(i % 64));
      const bool wi = get_bit(w[static_cast<std::size_t>(i / 64)],
                              static_cast<int>(i % 64));
      if (pi) ref += wi ? 1 : -1;
    }
    EXPECT_EQ(bitpack::plane_dot(p.data(), w.data(), nwords), ref);
  }
}

TEST(BitOps, SelectPackWidthTracksSpanLength) {
  using bitpack::select_pack_width_for_span;
  // Spans shorter than two words never issue a vector op.
  EXPECT_EQ(select_pack_width_for_span(0), PackWidth::k64);
  EXPECT_EQ(select_pack_width_for_span(1), PackWidth::k64);
  // Exact multiples take the widest vector that fits.
  EXPECT_EQ(select_pack_width_for_span(2), PackWidth::k128);
  EXPECT_EQ(select_pack_width_for_span(4), PackWidth::k256);
  EXPECT_EQ(select_pack_width_for_span(8), PackWidth::k512);
  EXPECT_EQ(select_pack_width_for_span(16), PackWidth::k1024);
  EXPECT_EQ(select_pack_width_for_span(4096), PackWidth::k1024);
  // The scalar tail counts: 3 words run 1 ulong2 op + 1 tail word (2
  // instructions) rather than 3 scalar words.
  EXPECT_EQ(select_pack_width_for_span(3), PackWidth::k128);
  // 12 words: 3 exact ulong4 ops beat 1 ulong8 op + 4 tail words.
  EXPECT_EQ(select_pack_width_for_span(12), PackWidth::k256);
  // 7 words (a 7x7 filter row of one word): ulong4 + 3 tail words ties
  // ulong2 x3 + 1 tail word at 4 instructions; ties go to the wider vector.
  EXPECT_EQ(select_pack_width_for_span(7), PackWidth::k256);
  // 24 words: 3 ulong8 ops beat 1 ulong16 op + 8 tail words.
  EXPECT_EQ(select_pack_width_for_span(24), PackWidth::k512);
  // 31 words: ulong4 x7 + 3 tail words and ulong8 x3 + 7 tail words both
  // take 10 instructions, so the wider ulong8 wins (ulong16 takes 16).
  EXPECT_EQ(select_pack_width_for_span(31), PackWidth::k512);
}

TEST(BitOps, ScalarHelpers) {
  EXPECT_EQ(popcount<std::uint64_t>(0), 0);
  EXPECT_EQ(popcount<std::uint64_t>(~0ull), 64);
  EXPECT_EQ(popcount<std::uint8_t>(0xA5), 4);
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(64, 64), 64);
  EXPECT_EQ(ceil_div(65, 64), 2);
  EXPECT_EQ(set_bit<std::uint8_t>(0, 3, true), 8);
  EXPECT_EQ(set_bit<std::uint8_t>(0xFF, 0, false), 0xFE);
  EXPECT_TRUE(get_bit<std::uint8_t>(8, 3));
  EXPECT_EQ(low_mask<std::uint64_t>(0), 0u);
  EXPECT_EQ(low_mask<std::uint64_t>(64), ~0ull);
  EXPECT_EQ(low_mask<std::uint64_t>(3), 7u);
}

TEST(BitOps, ZeroLengthSpans) {
  const std::uint64_t w = 0;
  EXPECT_EQ(bitpack::xor_popcount(&w, &w, 0, PackWidth::k64), 0);
  EXPECT_EQ(bitpack::binary_dot(&w, &w, 0, 0), 0);
}

}  // namespace
}  // namespace phonebit
