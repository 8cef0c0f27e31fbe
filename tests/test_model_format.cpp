// PhoneBit model serialization: roundtrip fidelity and corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "baselines/bnn_reference.hpp"
#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace phonebit {
namespace {

class ModelFormatTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = testing::temp_file("test_model.pbm");
};

TEST_F(ModelFormatTest, RoundtripPreservesOutputs) {
  const auto model = core::FloatModel::random(models::quicknet(10), 77);
  auto net = core::convert_to_phonebit(model);
  core::save_model(*net, path_);
  auto loaded = core::load_model(path_);

  ASSERT_EQ(loaded->size(), net->size());
  EXPECT_EQ(loaded->name(), net->name());
  EXPECT_EQ(loaded->param_bytes(), net->param_bytes());

  const U8Tensor image = datasets::cifar_like_image(9);
  core::Engine e1(testing::test_device());
  core::Engine e2(testing::test_device());
  auto s1 = e1.create_session();
  auto c1 = s1.context();
  auto s2 = e2.create_session();
  auto c2 = s2.context();
  const FloatTensor a = net->forward_float(c1, image);
  const FloatTensor b = loaded->forward_float(c2, image);
  EXPECT_TRUE(testing::expect_bitexact(a, b)) << "serialized model diverged";
}

TEST_F(ModelFormatTest, RoundtripYoloShapedNetwork) {
  models::ZooOptions zoo;
  zoo.shrink_log2 = 3;
  const auto model = core::FloatModel::random(models::yolov2_tiny(zoo), 78);
  auto net = core::convert_to_phonebit(model);
  core::save_model(*net, path_);
  auto loaded = core::load_model(path_);

  const U8Tensor image = datasets::voc_like_image(model.spec.input.h, 10);
  core::Engine e1(testing::test_device());
  core::Engine e2(testing::test_device());
  auto s1 = e1.create_session();
  auto c1 = s1.context();
  auto s2 = e2.create_session();
  auto c2 = s2.context();
  EXPECT_TRUE(testing::expect_bitexact(net->forward_float(c1, image),
                                       loaded->forward_float(c2, image)));
}

TEST_F(ModelFormatTest, FileSizeTracksParamBytes) {
  const auto model = core::FloatModel::random(models::quicknet(10), 79);
  auto net = core::convert_to_phonebit(model);
  core::save_model(*net, path_);
  std::ifstream is(path_, std::ios::binary | std::ios::ate);
  const std::int64_t file_bytes = static_cast<std::int64_t>(is.tellg());
  // File = params + headers/names; headers are small.
  EXPECT_GE(file_bytes, net->param_bytes());
  EXPECT_LE(file_bytes, net->param_bytes() + 4096);
}

TEST_F(ModelFormatTest, BadMagicRejected) {
  std::ofstream os(path_, std::ios::binary);
  os << "not a phonebit model at all";
  os.close();
  EXPECT_THROW(core::load_model(path_), FormatError);
}

TEST_F(ModelFormatTest, TruncatedFileRejected) {
  const auto model = core::FloatModel::random(models::quicknet(10), 80);
  auto net = core::convert_to_phonebit(model);
  core::save_model(*net, path_);
  // Truncate to the first 100 bytes.
  std::ifstream is(path_, std::ios::binary);
  std::vector<char> head(100);
  is.read(head.data(), 100);
  is.close();
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  os.write(head.data(), 100);
  os.close();
  EXPECT_THROW(core::load_model(path_), FormatError);
}

TEST_F(ModelFormatTest, MissingFileRejected) {
  EXPECT_THROW(core::load_model("/nonexistent/dir/model.pbm"), FormatError);
}

TEST_F(ModelFormatTest, LoadedModelStillMatchesReference) {
  // The folded->synthetic-BN reconstruction must binarize identically even
  // on the unfused ablation path.
  const auto model = core::FloatModel::random(models::quicknet(10), 81);
  auto net = core::convert_to_phonebit(model);
  core::save_model(*net, path_);
  auto loaded = core::load_model(path_);

  const U8Tensor image = datasets::cifar_like_image(11);
  const auto ref = baselines::bnn_reference_forward(model, image);

  core::EngineOptions unfused;
  unfused.fuse_bn_binarize = false;
  core::Engine engine(testing::test_device(), unfused);
  auto session = engine.create_session();
  auto ctx = session.context();
  EXPECT_TRUE(allclose(loaded->forward_float(ctx, image), ref.output, 1e-3f));
}

}  // namespace
}  // namespace phonebit
