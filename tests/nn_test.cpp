#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "nn_oracle.hpp"

namespace icoil::nn {
namespace {

/// One layer forward into a fresh output tensor.
Tensor run(Layer& layer, const Tensor& input, bool training) {
  Tensor out;
  layer.forward(input, out, training);
  return out;
}

// -------------------------------------------------------------- Tensor

TEST(TensorTest, ShapeAndFill) {
  Tensor t({2, 3, 4, 4});
  EXPECT_EQ(t.size(), 96u);
  t.fill(2.5f);
  EXPECT_FLOAT_EQ(t[95], 2.5f);
  t.zero();
  EXPECT_FLOAT_EQ(t[0], 0.0f);
}

TEST(TensorTest, At4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  // Last element of the buffer.
  EXPECT_FLOAT_EQ(t[t.size() - 1], 7.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  t.reshape({4, 1});
  EXPECT_FLOAT_EQ(t.at2(2, 0), 3.0f);
}

// ------------------------------------------- numerical gradient checking

/// Central-difference check of dL/d(input) and dL/d(params) for one layer,
/// with L = sum(output * weights) for fixed random weights.
void check_layer_gradients(Layer& layer, const std::vector<int>& input_shape,
                           double tol = 2e-2) {
  math::Rng rng(99);
  layer.init(rng);

  Tensor input(input_shape);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));

  // Fixed projection so L is a scalar function.
  Tensor out0 = run(layer, input, /*training=*/true);
  Tensor proj(out0.shape());
  for (std::size_t i = 0; i < proj.size(); ++i)
    proj[i] = static_cast<float>(rng.normal(0.0, 1.0));

  auto loss_of = [&](const Tensor& in) {
    Tensor out = run(layer, in, /*training=*/true);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out[i]) * proj[i];
    return acc;
  };

  // Analytic gradients.
  for (Param* p : layer.params()) p->grad.zero();
  run(layer, input, true);
  const Tensor grad_in = layer.backward(proj);

  // Input gradient check (sample a few coordinates).
  const double eps = 1e-3;
  for (std::size_t i = 0; i < input.size();
       i += std::max<std::size_t>(1, input.size() / 7)) {
    Tensor plus = input, minus = input;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    const double num = (loss_of(plus) - loss_of(minus)) / (2 * eps);
    EXPECT_NEAR(grad_in[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad at " << i;
  }

  // Parameter gradient check.
  for (Param* p : layer.params()) {
    // Re-run analytic pass to fill p->grad (zeroed above, already filled).
    for (std::size_t i = 0; i < p->value.size();
         i += std::max<std::size_t>(1, p->value.size() / 5)) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = loss_of(input);
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = loss_of(input);
      p->value[i] = saved;
      const double num = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0, std::abs(num)))
          << layer.name() << " param grad at " << i;
    }
  }
}

TEST(GradCheckTest, Dense) {
  Dense layer(6, 4);
  check_layer_gradients(layer, {2, 6});
}

TEST(GradCheckTest, Conv2D) {
  Conv2D layer(2, 3, 3);
  check_layer_gradients(layer, {2, 2, 6, 6});
}

TEST(GradCheckTest, ReLU) {
  ReLU layer;
  check_layer_gradients(layer, {2, 8});
}

TEST(GradCheckTest, MaxPool) {
  MaxPool2D layer;
  check_layer_gradients(layer, {1, 2, 6, 6});
}

TEST(GradCheckTest, CrossEntropyAgainstNumerical) {
  math::Rng rng(5);
  Tensor logits({3, 4});
  for (std::size_t i = 0; i < logits.size(); ++i)
    logits[i] = static_cast<float>(rng.normal());
  const std::vector<int> labels{1, 3, 0};
  const auto res = CrossEntropyLoss::compute(logits, labels);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor plus = logits, minus = logits;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    const double num =
        (CrossEntropyLoss::compute(plus, labels).loss -
         CrossEntropyLoss::compute(minus, labels).loss) /
        (2 * eps);
    EXPECT_NEAR(res.grad[i], num, 1e-3);
  }
}

// ---------------------------------------------------------------- layers

TEST(LayerTest, ConvOutputShapeSamePadding) {
  Conv2D conv(3, 8, 3);
  math::Rng rng(1);
  conv.init(rng);
  Tensor in({2, 3, 16, 16});
  const Tensor out = run(conv, in, false);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 8, 16, 16}));
}

TEST(LayerTest, ConvKnownKernel) {
  // Identity-ish kernel: single 1 at the center of a 3x3, one channel.
  Conv2D conv(1, 1, 3);
  for (Param* p : conv.params()) p->value.zero();
  conv.params()[0]->value.at4(0, 0, 1, 1) = 1.0f;  // center tap
  Tensor in({1, 1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  const Tensor out = run(conv, in, false);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(LayerTest, ReluClampsNegatives) {
  ReLU relu;
  Tensor in = Tensor::from_data({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor out = run(relu, in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(LayerTest, MaxPoolPicksMaxAndHalvesSize) {
  MaxPool2D pool;
  Tensor in({1, 1, 4, 4});
  in.at4(0, 0, 0, 0) = 5.0f;
  in.at4(0, 0, 2, 3) = 7.0f;
  const Tensor out = run(pool, in, false);
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 7.0f);
}

TEST(LayerTest, FlattenRoundTrip) {
  Flatten flat;
  Tensor in({2, 3, 4, 4});
  const Tensor out = run(flat, in, true);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 48}));
  const Tensor back = flat.backward(out);
  EXPECT_EQ(back.shape(), in.shape());
}

TEST(LayerTest, SoftmaxRowsSumToOne) {
  math::Rng rng(2);
  for (int r = 0; r < 4; ++r) {
    float logits[6];
    for (float& v : logits) v = static_cast<float>(rng.normal(0, 3));
    const auto p = softmax_row(logits, 6);
    float sum = 0.0f;
    for (const float v : p) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(LayerTest, SoftmaxRowNumericalStability) {
  const float big[3] = {1000.0f, 1001.0f, 999.0f};
  const auto p = softmax_row(big, 3);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p[1], p[0]);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-5f);
}

TEST(LossTest, EntropyUniformIsLogM) {
  const std::vector<float> uniform(8, 1.0f / 8.0f);
  EXPECT_NEAR(entropy(uniform), std::log(8.0), 1e-6);
  const std::vector<float> onehot{1.0f, 0.0f, 0.0f};
  EXPECT_NEAR(entropy(onehot), 0.0, 1e-9);
}

TEST(LossTest, AccuracyCountsArgmax) {
  Tensor logits = Tensor::from_data({2, 3}, {0.1f, 0.9f, 0.0f,   // -> 1
                                             0.9f, 0.0f, 0.1f});  // -> 0
  EXPECT_DOUBLE_EQ(CrossEntropyLoss::accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CrossEntropyLoss::accuracy(logits, {1, 2}), 0.5);
}

// ------------------------------------------------------------ Sequential

Sequential make_mlp(int in, int hidden, int out) {
  Sequential net;
  net.add<Dense>(in, hidden);
  net.add<ReLU>();
  net.add<Dense>(hidden, out);
  return net;
}

TEST(SequentialTest, ParamCollection) {
  Sequential net = make_mlp(4, 8, 3);
  EXPECT_EQ(net.params().size(), 4u);  // two dense layers, weight+bias each
  EXPECT_EQ(net.num_parameters(), 4u * 8u + 8u + 8u * 3u + 3u);
}

TEST(SequentialTest, DeterministicInit) {
  Sequential a = make_mlp(4, 8, 3);
  Sequential b = make_mlp(4, 8, 3);
  math::Rng r1(5), r2(5);
  a.init(r1);
  b.init(r2);
  const auto pa = a.params();
  const auto pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
      EXPECT_FLOAT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(TrainingTest, SgdReducesLossOnLinearlySeparableData) {
  // Two gaussian blobs -> binary classification via tiny MLP.
  Sequential net = make_mlp(2, 16, 2);
  math::Rng rng(3);
  net.init(rng);

  const int n = 64;
  Tensor x({n, 2});
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    y[static_cast<std::size_t>(i)] = cls;
    x.at2(i, 0) = static_cast<float>(rng.normal(cls ? 2.0 : -2.0, 0.5));
    x.at2(i, 1) = static_cast<float>(rng.normal(cls ? -1.0 : 1.0, 0.5));
  }

  Sgd opt(net.params(), 0.05);
  Workspace ws;
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 60; ++epoch) {
    opt.zero_grad();
    const Tensor& logits = net.forward(x, ws, true);
    const auto ce = CrossEntropyLoss::compute(logits, y);
    net.backward(ce.grad);
    opt.step();
    if (epoch == 0) first_loss = ce.loss;
    last_loss = ce.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.3f);
  EXPECT_GT(CrossEntropyLoss::accuracy(net.forward(x, ws, false), y), 0.95);
}

TEST(TrainingTest, AdamConvergesFasterThanHighLrIsStable) {
  Sequential net = make_mlp(2, 8, 2);
  math::Rng rng(4);
  net.init(rng);
  const int n = 32;
  Tensor x({n, 2});
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    y[static_cast<std::size_t>(i)] = cls;
    x.at2(i, 0) = static_cast<float>(rng.normal(cls ? 1.5 : -1.5, 0.4));
    x.at2(i, 1) = static_cast<float>(rng.normal(0.0, 0.4));
  }
  Adam opt(net.params(), 1e-2);
  Workspace ws;
  float last = 0.0f;
  for (int epoch = 0; epoch < 50; ++epoch) {
    opt.zero_grad();
    const auto ce = CrossEntropyLoss::compute(net.forward(x, ws, true), y);
    net.backward(ce.grad);
    opt.step();
    last = ce.loss;
    ASSERT_FALSE(std::isnan(last));
  }
  EXPECT_LT(last, 0.2f);
}

// ----------------------------------------------------------- serialization

TEST(SerializeTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_nn_test.bin").string();
  Sequential a = make_mlp(3, 5, 2);
  math::Rng rng(7);
  a.init(rng);
  ASSERT_TRUE(save_params(a, path));

  Sequential b = make_mlp(3, 5, 2);
  math::Rng rng2(123);
  b.init(rng2);
  ASSERT_TRUE(load_params(b, path));

  Tensor x = Tensor::from_data({1, 3}, {0.3f, -0.7f, 1.1f});
  Workspace wa, wb;
  const Tensor& ya = a.forward(x, wa, false);
  const Tensor& yb = b.forward(x, wb, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
  std::filesystem::remove(path);
}

TEST(SerializeTest, LoadRejectsArchitectureMismatch) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_nn_bad.bin").string();
  Sequential a = make_mlp(3, 5, 2);
  math::Rng rng(7);
  a.init(rng);
  ASSERT_TRUE(save_params(a, path));
  Sequential b = make_mlp(3, 6, 2);  // different hidden width
  EXPECT_FALSE(load_params(b, path));
  std::filesystem::remove(path);
}

TEST(SerializeTest, LoadRejectsMissingFile) {
  Sequential a = make_mlp(2, 2, 2);
  EXPECT_FALSE(load_params(a, "/nonexistent/path/net.bin"));
  EXPECT_FALSE(load_params(
      a, std::filesystem::temp_directory_path().string()));  // a directory
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::vector<float>> snapshot(Sequential& net) {
  std::vector<std::vector<float>> out;
  for (Param* p : net.params()) out.push_back(p->value.vec());
  return out;
}

void expect_bit_identical(const std::vector<std::vector<float>>& a,
                          const std::vector<std::vector<float>>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].size(), b[k].size()) << what << " param " << k;
    EXPECT_EQ(std::memcmp(a[k].data(), b[k].data(), a[k].size() * sizeof(float)),
              0)
        << what << " param " << k;
  }
}

// A rejected file must leave every weight untouched: a half-loaded network
// would pass for a trained one while mixing two weight sets.
TEST(SerializeTest, RejectedLoadLeavesWeightsUntouched) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string good = (dir / "icoil_nn_good.bin").string();
  const std::string bad = (dir / "icoil_nn_corrupt.bin").string();
  Sequential a = make_mlp(3, 5, 2);
  math::Rng rng(7);
  a.init(rng);
  ASSERT_TRUE(save_params(a, good));
  const std::vector<char> bytes = read_bytes(good);
  ASSERT_GT(bytes.size(), 8u);

  Sequential b = make_mlp(3, 5, 2);
  math::Rng rng2(123);
  b.init(rng2);
  const auto before = snapshot(b);

  // Every layer but the last payload float is intact.
  write_bytes(bad, {bytes.begin(), bytes.end() - 4});
  EXPECT_FALSE(load_params(b, bad));
  expect_bit_identical(before, snapshot(b), "truncated");

  // Same first layer, different output width: the mismatch is in the last
  // two tensors, after the first layer's payload.
  Sequential wide = make_mlp(3, 5, 3);
  wide.init(rng);
  ASSERT_TRUE(save_params(wide, bad));
  EXPECT_FALSE(load_params(b, bad));
  expect_bit_identical(before, snapshot(b), "wrong last shape");

  std::vector<char> trailing = bytes;
  trailing.push_back('\0');
  write_bytes(bad, trailing);
  EXPECT_FALSE(load_params(b, bad));
  expect_bit_identical(before, snapshot(b), "trailing bytes");

  // Format 1 stored Dense weights (out, in); its magic must not load.
  std::vector<char> old_magic = bytes;
  const std::uint32_t v1 = 0x1C011A11u;
  std::memcpy(old_magic.data(), &v1, sizeof(v1));
  write_bytes(bad, old_magic);
  EXPECT_FALSE(load_params(b, bad));
  expect_bit_identical(before, snapshot(b), "old magic");

  ASSERT_TRUE(load_params(b, good));
  expect_bit_identical(snapshot(a), snapshot(b), "good file");
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

// ---------------------------------------------------- forward vs the oracle

Tensor random_tensor(std::vector<int> shape, math::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal());
  return t;
}

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << what << " elem " << i << ": " << got[i] << " vs " << want[i];
}

// Every layer's forward must reproduce the scalar loops of nn_oracle.hpp
// bit for bit (memcmp: even the sign of a zero counts), recording for
// backward or not. The passes share one output tensor and the layer's own
// scratch, so reuse must not leak state from one call into the next.
void expect_forward_matches_oracle(Layer& layer, const Tensor& in,
                                   const char* what) {
  const Tensor want = oracle::forward(layer, in);
  Tensor out;
  int pass = 0;
  for (const bool training : {false, false, true, true, false}) {
    layer.forward(in, out, training);
    expect_same_bits(out, want,
                     std::string(what) + " pass " + std::to_string(pass++) +
                         (training ? " (training)" : ""));
  }
}

// What a training forward records must be a copy: backward has to give the
// same answer after the forward's input and output are overwritten.
Tensor backward_after_clobber(Layer& layer, const Tensor& in,
                              const Tensor& grad) {
  Tensor x = in, out;
  layer.forward(x, out, /*training=*/true);
  x.fill(123.0f);
  out.fill(-123.0f);
  return layer.backward(grad);
}

TEST(ForwardTest, EachLayerMatchesOracle) {
  math::Rng rng(31);
  const Tensor img = random_tensor({3, 4, 10, 10}, rng);

  Conv2D conv(4, 6, 3);
  conv.init(rng);
  expect_forward_matches_oracle(conv, img, "conv");

  ReLU relu;
  expect_forward_matches_oracle(relu, img, "relu");

  MaxPool2D pool;
  expect_forward_matches_oracle(pool, img, "pool");

  Flatten flatten;
  expect_forward_matches_oracle(flatten, img, "flatten");

  Dense dense(12, 5);
  dense.init(rng);
  const Tensor rows = random_tensor({3, 12}, rng);
  expect_forward_matches_oracle(dense, rows, "dense");

  // Zero weights and a zero image: the GEMM adds the ±0 terms the AXPY
  // loop skips, and the result must still match bit for bit.
  Conv2D sparse(4, 6, 3);
  sparse.init(rng);
  Tensor& sw = sparse.params()[0]->value;
  for (std::size_t i = 0; i < sw.size(); i += 3) sw[i] = 0.0f;
  expect_forward_matches_oracle(sparse, img, "conv, zero weights");
  expect_forward_matches_oracle(sparse, Tensor({2, 4, 6, 6}),
                                "conv, zero image");
}

// ReLU runs on 4-float vector lanes plus a scalar tail. Every special value
// (signed zeros, NaNs of both signs, infinities, denormals) must land in
// every lane and in the tail: lengths 0 to 9 at every rotation of the value
// pool. The output must equal the oracle's select and the training mask
// `v > 0 ? 1 : 0`, bit for bit (a -0 stays -0, a NaN keeps its payload and
// masks to 0). backward of all-ones reads the mask back exactly.
TEST(ForwardTest, ReluMatchesOracleOnSpecialValuesAndTails) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> pool = {
      0.0f, -0.0f, nan, -nan, inf, -inf, tiny, -tiny,
      1e-39f, -1e-39f, 1.5f, -2.5f, std::numeric_limits<float>::max()};
  ReLU relu;
  for (int len = 0; len <= 9; ++len) {
    for (std::size_t rot = 0; rot < pool.size(); ++rot) {
      Tensor in({1, len});
      for (int i = 0; i < len; ++i)
        in[static_cast<std::size_t>(i)] =
            pool[(rot + static_cast<std::size_t>(i)) % pool.size()];
      const std::string what =
          "len " + std::to_string(len) + " rot " + std::to_string(rot);
      expect_forward_matches_oracle(relu, in, what.c_str());

      Tensor out;
      relu.forward(in, out, /*training=*/true);
      Tensor mask_want(in.shape()), ones(in.shape(), 1.0f);
      for (std::size_t i = 0; i < in.size(); ++i)
        mask_want[i] = in[i] > 0.0f ? 1.0f : 0.0f;
      expect_same_bits(relu.backward(ones), mask_want, what + " mask");
    }
  }
}

// Conv2D's im2col writes each tap's column row as one shifted run of the
// input plane and then zeroes the padding entries around and inside it.
// Degenerate planes (a single pixel, a single row or column, a plane no
// wider than the padding) and the policy's 48x48 must all match the
// shifted-row oracle bit for bit, for 3x3 and 5x5 kernels.
TEST(ForwardTest, ConvMatchesOracleOnEveryPlaneShape) {
  math::Rng rng(53);
  const std::vector<std::pair<int, int>> planes = {
      {1, 1}, {1, 5}, {5, 1}, {2, 2}, {48, 48}};
  for (const int kernel : {3, 5}) {
    for (const int in_c : {1, 5}) {
      Conv2D conv(in_c, 3, kernel);
      conv.init(rng);
      EXPECT_EQ(conv.pad(), kernel / 2);
      for (const auto& [h, w] : planes) {
        const Tensor img = random_tensor({2, in_c, h, w}, rng);
        const std::string what = "k" + std::to_string(kernel) + " c" +
                                 std::to_string(in_c) + " " +
                                 std::to_string(h) + "x" + std::to_string(w);
        expect_forward_matches_oracle(conv, img, what.c_str());
      }
    }
  }
}

// One conv instance through shrinking and growing geometries: its im2col
// scratch keeps whatever the previous call wrote, including where this
// geometry has padding (4x4 -> 2x8 -> 8x2 keep the same plane size, so the
// scratch is not even resized). Every call must match the oracle.
TEST(ForwardTest, ConvScratchReuseAcrossGeometries) {
  math::Rng rng(59);
  Conv2D conv(2, 3, 3);
  conv.init(rng);
  const std::vector<std::pair<int, int>> planes = {
      {48, 48}, {1, 1}, {6, 6}, {4, 4}, {2, 8}, {8, 2},
      {1, 16},  {16, 1}, {3, 7}, {48, 48}, {2, 2}, {12, 10}};
  Tensor out;
  for (std::size_t i = 0; i < planes.size(); ++i) {
    const auto [h, w] = planes[i];
    const Tensor img = random_tensor({1 + static_cast<int>(i % 3), 2, h, w}, rng);
    conv.forward(img, out, /*training=*/i % 2 == 1);
    expect_same_bits(out, oracle::forward(conv, img),
                     "step " + std::to_string(i) + ": " + std::to_string(h) +
                         "x" + std::to_string(w));
  }
}

// Backward reads only what the training forward recorded: ReLU's mask,
// the pool's argmax in the oracle's scan order and tie-break, Flatten's
// shape, and copies of the Conv2D/Dense inputs.
TEST(ForwardTest, TrainingForwardRecordsWhatBackwardNeeds) {
  math::Rng rng(41);
  // Values in {-1, 0, 1}: many pool windows tie, and ReLU sees exact zeros.
  Tensor img({2, 3, 8, 8});
  for (std::size_t i = 0; i < img.size(); ++i)
    img[i] = static_cast<float>(rng.uniform_int(-1, 1));
  const Tensor g_img = random_tensor(img.shape(), rng);

  ReLU relu;
  const Tensor relu_grad = backward_after_clobber(relu, img, g_img);
  Tensor relu_want = g_img;
  for (std::size_t i = 0; i < img.size(); ++i)
    relu_want[i] *= img[i] > 0.0f ? 1.0f : 0.0f;
  expect_same_bits(relu_grad, relu_want, "relu");

  MaxPool2D pool;
  std::vector<std::size_t> argmax;
  const Tensor pooled = oracle::maxpool2d(img, &argmax);
  const Tensor g_pool = random_tensor(pooled.shape(), rng);
  Tensor pool_want(img.shape());
  for (std::size_t i = 0; i < g_pool.size(); ++i)
    pool_want[argmax[i]] += g_pool[i];
  expect_same_bits(backward_after_clobber(pool, img, g_pool), pool_want,
                   "pool");

  Flatten flatten;
  const Tensor g_flat = Tensor::from_data({2, 3 * 8 * 8}, g_img.vec());
  expect_same_bits(backward_after_clobber(flatten, img, g_flat), g_img,
                   "flatten");

  // Conv2D and Dense: against a twin whose input stays intact.
  Conv2D conv(3, 4, 3);
  conv.init(rng);
  Conv2D conv_twin = conv;
  const Tensor g_conv = random_tensor({2, 4, 8, 8}, rng);
  const Tensor conv_grad = backward_after_clobber(conv, img, g_conv);
  Tensor unused;
  conv_twin.forward(img, unused, /*training=*/true);
  expect_same_bits(conv_grad, conv_twin.backward(g_conv), "conv input grad");
  for (std::size_t p = 0; p < 2; ++p)
    expect_same_bits(conv.params()[p]->grad, conv_twin.params()[p]->grad,
                     "conv param grad " + std::to_string(p));

  Dense dense(12, 5);
  dense.init(rng);
  Dense dense_twin = dense;
  const Tensor rows = random_tensor({3, 12}, rng);
  const Tensor g_rows = random_tensor({3, 5}, rng);
  const Tensor dense_grad = backward_after_clobber(dense, rows, g_rows);
  dense_twin.forward(rows, unused, /*training=*/true);
  expect_same_bits(dense_grad, dense_twin.backward(g_rows), "dense input grad");
  for (std::size_t p = 0; p < 2; ++p)
    expect_same_bits(dense.params()[p]->grad, dense_twin.params()[p]->grad,
                     "dense param grad " + std::to_string(p));
}

// A conv -> relu -> pool -> flatten -> dense stack through one Workspace,
// checked against central differences. Every layer writes one of the same
// two buffers and both are overwritten before backward, so the analytic
// gradient is right only if each layer recorded a copy of its input, not a
// view of a ping-pong buffer.
TEST(GradCheckTest, StackThroughOneWorkspace) {
  math::Rng rng(13);
  Sequential net;
  net.add<Conv2D>(2, 3, 3);
  net.add<ReLU>();
  net.add<MaxPool2D>();
  net.add<Flatten>();
  net.add<Dense>(3 * 3 * 3, 4);
  net.init(rng);
  const Tensor input = random_tensor({2, 2, 6, 6}, rng);
  const Tensor proj = random_tensor({2, 4}, rng);

  Workspace ws;
  auto loss_of = [&](const Tensor& in) {
    const Tensor& out = net.forward(in, ws, /*training=*/true);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out[i]) * proj[i];
    return acc;
  };

  net.zero_grad();
  Tensor x = input;
  net.forward(x, ws, /*training=*/true);
  ws.ping.fill(1e3f);
  ws.pong.fill(-1e3f);
  x.fill(1e3f);
  const Tensor grad_in = net.backward(proj);
  std::vector<Tensor> grads;
  for (Param* p : net.params()) grads.push_back(p->grad);

  const double eps = 1e-3, tol = 2e-2;
  for (std::size_t i = 0; i < input.size(); i += 5) {
    Tensor plus = input, minus = input;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    const double num = (loss_of(plus) - loss_of(minus)) / (2 * eps);
    EXPECT_NEAR(grad_in[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad at " << i;
  }
  const auto params = net.params();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Tensor& value = params[k]->value;
    for (std::size_t i = 0; i < value.size();
         i += std::max<std::size_t>(1, value.size() / 6)) {
      const float saved = value[i];
      value[i] = saved + static_cast<float>(eps);
      const double lp = loss_of(input);
      value[i] = saved - static_cast<float>(eps);
      const double lm = loss_of(input);
      value[i] = saved;
      const double num = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grads[k][i], num, tol * std::max(1.0, std::abs(num)))
          << "param " << k << " grad at " << i;
    }
  }
}

// Dense stores W as (in, out): element i * out + o couples input i to
// output o. init draws the logical weights in (o, i) order, so a seed builds
// the same network whatever the storage layout.
TEST(ForwardTest, DenseWeightLayoutAndInitOrder) {
  Dense dense(3, 4);
  math::Rng rng(5), expect(5);
  dense.init(rng);
  const Tensor& w = dense.params()[0]->value;
  ASSERT_EQ(w.shape(), (std::vector<int>{3, 4}));
  const double limit = std::sqrt(6.0 / (3 + 4));
  for (int o = 0; o < 4; ++o)
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(w[static_cast<std::size_t>(i) * 4 + o],
                static_cast<float>(expect.uniform(-limit, limit)))
          << "o " << o << " i " << i;

  for (Param* p : dense.params()) p->value.zero();
  dense.params()[0]->value[2 * 4 + 1] = 3.0f;  // input 2 -> output 1
  const Tensor x = Tensor::from_data({1, 3}, {0.0f, 0.0f, 2.0f});
  const Tensor y = run(dense, x, false);
  EXPECT_EQ(y[1], 6.0f);
  EXPECT_EQ(y[0] + y[2] + y[3], 0.0f);
}

// Forward reads the learnable weights themselves, so any change to them —
// an optimizer step, a load — shows on the next call.
TEST(ForwardTest, DenseForwardFollowsWeightUpdates) {
  math::Rng rng(5);
  Dense dense(8, 4);
  dense.init(rng);
  const Tensor in = random_tensor({2, 8}, rng);

  Tensor out;
  dense.forward(in, out, /*training=*/true);
  Tensor grad(out.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = 0.25f;
  dense.backward(grad);
  for (auto* p : dense.params())
    for (std::size_t i = 0; i < p->value.size(); ++i)
      p->value[i] -= 0.1f * p->grad[i];

  dense.forward(in, out, /*training=*/false);
  expect_same_bits(out, oracle::forward(dense, in), "after update");
}

TEST(ForwardTest, SequentialForwardFollowsLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_nn_eval_load.bin").string();
  Sequential a = make_mlp(6, 6, 6);  // square layers
  Sequential b = make_mlp(6, 6, 6);
  math::Rng ra(1), rb(2);
  a.init(ra);
  b.init(rb);
  ASSERT_TRUE(save_params(b, path));

  const Tensor in = random_tensor({3, 6}, ra);
  Workspace ws;
  (void)a.forward(in, ws, false);
  ASSERT_TRUE(load_params(a, path));
  expect_same_bits(a.forward(in, ws, false), oracle::forward(b, in),
                   "after load");
  std::filesystem::remove(path);
}

TEST(ForwardTest, SequentialMatchesOracleThroughWorkspace) {
  math::Rng rng(77);
  Sequential net;
  net.add<Conv2D>(2, 4, 3);
  net.add<ReLU>();
  net.add<MaxPool2D>();
  net.add<Flatten>();
  net.add<Dense>(4 * 6 * 6, 10);
  net.init(rng);

  Workspace ws;
  for (int pass = 0; pass < 4; ++pass) {
    const Tensor in = random_tensor({2, 2, 12, 12}, rng);
    const bool training = pass % 2 == 1;
    expect_same_bits(net.forward(in, ws, training), oracle::forward(net, in),
                     "pass " + std::to_string(pass));
  }
}

}  // namespace
}  // namespace icoil::nn
