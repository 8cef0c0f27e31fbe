// PhoneBit tests — shared fixtures, generators and the bit-exactness
// comparators used by every differential test (compiled vs uncompiled,
// fused vs unfused, loaded artifact vs fresh compile, batch vs serial).
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>

#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "core/phonebit.hpp"
#include "oclsim/runtime.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::testing {

/// Bit-exact float-tensor equality: same shape, same layout, identical
/// bytes (stricter than allclose(.., 0.0f): distinguishes -0/+0 and never
/// accepts NaN drift). Storage ownership is irrelevant — a borrowed slab
/// view compares equal to an owning copy with the same contents.
inline ::testing::AssertionResult expect_bitexact(const FloatTensor& a,
                                                  const FloatTensor& b) {
  if (!(a.shape() == b.shape())) {
    return ::testing::AssertionFailure()
           << "shapes differ: " << a.shape().str() << " vs "
           << b.shape().str();
  }
  if (a.layout() != b.layout()) {
    return ::testing::AssertionFailure() << "layouts differ";
  }
  if (std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes())) !=
      0) {
    return ::testing::AssertionFailure()
           << "float tensors differ (max abs diff " << max_abs_diff(a, b)
           << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Bit-exact blob equality: same variant alternative, same shape, identical
/// packed words / bytes / floats.
inline ::testing::AssertionResult expect_bitexact(const core::Blob& a,
                                                  const core::Blob& b) {
  if (a.index() != b.index()) {
    return ::testing::AssertionFailure() << "blob kinds differ";
  }
  if (const auto* fa = std::get_if<FloatTensor>(&a)) {
    return expect_bitexact(*fa, std::get<FloatTensor>(b));
  }
  if (const auto* ua = std::get_if<U8Tensor>(&a)) {
    const auto& ub = std::get<U8Tensor>(b);
    if (!(ua->shape() == ub.shape())) {
      return ::testing::AssertionFailure()
             << "u8 shapes differ: " << ua->shape().str() << " vs "
             << ub.shape().str();
    }
    if (std::memcmp(ua->data(), ub.data(),
                    static_cast<std::size_t>(ua->bytes())) != 0) {
      return ::testing::AssertionFailure() << "u8 tensors differ";
    }
    return ::testing::AssertionSuccess();
  }
  const auto& pa = std::get<bitpack::PackedTensor>(a);
  const auto& pb = std::get<bitpack::PackedTensor>(b);
  if (!(pa == pb)) {
    return ::testing::AssertionFailure()
           << "packed tensors differ (" << pa.shape().str() << " vs "
           << pb.shape().str() << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Bit-exact forward equality — the comparator behind every differential
/// suite: two ForwardResults that claim to be the SAME computation must
/// agree on the output bits AND on the deterministic modeled device time
/// (a modeled-time drift means a different kernel schedule ran, even if
/// the bits happen to match).
inline ::testing::AssertionResult expect_bitexact(
    const core::ForwardResult& a, const core::ForwardResult& b) {
  const ::testing::AssertionResult out = expect_bitexact(a.output, b.output);
  if (!out) return out;
  const double drift = a.modeled_ms - b.modeled_ms;
  if (drift > 1e-9 || drift < -1e-9) {
    return ::testing::AssertionFailure()
           << "modeled time drifted: " << a.modeled_ms << " vs "
           << b.modeled_ms << " ms";
  }
  return ::testing::AssertionSuccess();
}

/// Path of a scratch file `name` under ::testing::TempDir(), prefixed with
/// this process's id: test processes running at once (two builds' suites,
/// or a suite and its soak) never share — and delete — each other's files.
inline std::string temp_file(const std::string& name) {
  return ::testing::TempDir() + "phonebit_" + std::to_string(::getpid()) +
         "_" + name;
}

/// Shared simulated device (SD855) for tests; host threads capped so unit
/// tests stay cheap to spawn.
inline std::shared_ptr<oclsim::Device> test_device() {
  static auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855(), 4);
  return device;
}

/// Random ±1-valued float tensor (the binary activation domain).
inline FloatTensor random_sign_tensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatTensor t(shape, Layout::kNHWC);
  for (std::int64_t i = 0; i < t.elems(); ++i) t.data()[i] = rng.sign();
  return t;
}

/// Random float tensor ~N(0,1).
inline FloatTensor random_float_tensor(const Shape& shape,
                                       std::uint64_t seed) {
  Rng rng(seed);
  FloatTensor t(shape, Layout::kNHWC);
  t.fill_random(rng);
  return t;
}

/// Random batch-norm parameter vector with both gamma signs present.
inline std::vector<core::BatchNormParams> random_bn(std::int64_t channels,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < channels; ++c) {
    core::BatchNormParams p;
    p.gamma = rng.uniform(0.3f, 1.5f) * (rng.uniform() < 0.3f ? -1.0f : 1.0f);
    p.beta = rng.normal() * 0.5f;
    p.mu = rng.normal() * 3.0f;
    p.sigma = rng.uniform(0.5f, 2.0f);
    bn.push_back(p);
  }
  return bn;
}

inline std::vector<float> random_bias(std::int64_t channels,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> b(static_cast<std::size_t>(channels));
  for (auto& x : b) x = rng.normal() * 0.2f;
  return b;
}

/// Expands a packed tensor and compares with a ±1 float reference.
inline bool packed_equals_signs(const bitpack::PackedTensor& packed,
                                const FloatTensor& ref) {
  const FloatTensor got = bitpack::unpack_signs(packed);
  return allclose(got, ref, 0.0f);
}

}  // namespace phonebit::testing
