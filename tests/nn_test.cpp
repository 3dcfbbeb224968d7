#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"

namespace icoil::nn {
namespace {

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
  Tensor out0 = layer.forward(input, /*training=*/true);
  Tensor proj(out0.shape());
  for (std::size_t i = 0; i < proj.size(); ++i)
    proj[i] = static_cast<float>(rng.normal(0.0, 1.0));

  auto loss_of = [&](const Tensor& in) {
    Tensor out = layer.forward(in, /*training=*/true);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out[i]) * proj[i];
    return acc;
  };

  // Analytic gradients.
  for (Param* p : layer.params()) p->grad.zero();
  layer.forward(input, true);
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
  Conv2D layer(2, 3, 3, 1);
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

TEST(GradCheckTest, Softmax) {
  Softmax layer;
  check_layer_gradients(layer, {3, 5});
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
  Conv2D conv(3, 8, 3, 1);
  math::Rng rng(1);
  conv.init(rng);
  Tensor in({2, 3, 16, 16});
  const Tensor out = conv.forward(in, false);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 8, 16, 16}));
}

TEST(LayerTest, ConvKnownKernel) {
  // Identity-ish kernel: single 1 at the center of a 3x3, one channel.
  Conv2D conv(1, 1, 3, 1);
  for (Param* p : conv.params()) p->value.zero();
  conv.params()[0]->value.at4(0, 0, 1, 1) = 1.0f;  // center tap
  Tensor in({1, 1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  const Tensor out = conv.forward(in, false);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(LayerTest, ReluClampsNegatives) {
  ReLU relu;
  Tensor in = Tensor::from_data({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor out = relu.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(LayerTest, MaxPoolPicksMaxAndHalvesSize) {
  MaxPool2D pool;
  Tensor in({1, 1, 4, 4});
  in.at4(0, 0, 0, 0) = 5.0f;
  in.at4(0, 0, 2, 3) = 7.0f;
  const Tensor out = pool.forward(in, false);
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 7.0f);
}

TEST(LayerTest, FlattenRoundTrip) {
  Flatten flat;
  Tensor in({2, 3, 4, 4});
  const Tensor out = flat.forward(in, true);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 48}));
  const Tensor back = flat.backward(out);
  EXPECT_EQ(back.shape(), in.shape());
}

TEST(LayerTest, SoftmaxRowsSumToOne) {
  Softmax sm;
  math::Rng rng(2);
  Tensor in({4, 6});
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(rng.normal(0, 3));
  const Tensor out = sm.forward(in, false);
  for (int r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 6; ++c) {
      EXPECT_GE(out.at2(r, c), 0.0f);
      sum += out.at2(r, c);
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
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 60; ++epoch) {
    opt.zero_grad();
    const Tensor logits = net.forward(x, true);
    const auto ce = CrossEntropyLoss::compute(logits, y);
    net.backward(ce.grad);
    opt.step();
    if (epoch == 0) first_loss = ce.loss;
    last_loss = ce.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.3f);
  EXPECT_GT(CrossEntropyLoss::accuracy(net.forward(x, false), y), 0.95);
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
  float last = 0.0f;
  for (int epoch = 0; epoch < 50; ++epoch) {
    opt.zero_grad();
    const auto ce = CrossEntropyLoss::compute(net.forward(x, true), y);
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
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
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

// ---------------------------------------------------- forward_eval parity

// The allocation-free eval path promises BIT-identical outputs to
// forward(., training=false) for every layer — exact equality, no
// tolerance.
Tensor random_tensor(std::vector<int> shape, math::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal());
  return t;
}

void expect_eval_matches_forward(Layer& layer, const Tensor& in,
                                 const char* what) {
  const Tensor ref = layer.forward(in, false);
  Tensor out;
  layer.forward_eval(in, out);
  ASSERT_EQ(out.shape(), ref.shape()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(out[i], ref[i]) << what << " elem " << i;
  // Second pass through the same layer reuses its scratch buffers — the
  // reuse must not leak state between calls.
  Tensor again;
  layer.forward_eval(in, again);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(again[i], ref[i]) << what << " repeat elem " << i;
}

TEST(EvalPathTest, EachLayerMatchesForward) {
  math::Rng rng(31);
  Tensor img = random_tensor({3, 4, 10, 10}, rng);

  Conv2D conv(4, 6, 3, 1);
  conv.init(rng);
  expect_eval_matches_forward(conv, img, "conv");

  ReLU relu;
  expect_eval_matches_forward(relu, img, "relu");

  MaxPool2D pool;
  expect_eval_matches_forward(pool, img, "pool");

  Flatten flatten;
  expect_eval_matches_forward(flatten, img, "flatten");

  Dense dense(12, 5);
  dense.init(rng);
  Tensor rows = random_tensor({3, 12}, rng);
  expect_eval_matches_forward(dense, rows, "dense");

  Softmax softmax;
  expect_eval_matches_forward(softmax, rows, "softmax");
}

// Dense stores W as (in, out): element i * out + o couples input i to
// output o. init draws the logical weights in (o, i) order, so a seed builds
// the same network whatever the storage layout.
TEST(EvalPathTest, DenseWeightLayoutAndInitOrder) {
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
  const Tensor y = dense.forward(x, false);
  EXPECT_EQ(y[1], 6.0f);
  EXPECT_EQ(y[0] + y[2] + y[3], 0.0f);
}

// forward_eval reads the learnable weights themselves, so any change to
// them — an optimizer step, a load — shows on the next eval call.
TEST(EvalPathTest, DenseEvalFollowsWeightUpdates) {
  math::Rng rng(5);
  Dense dense(8, 4);
  dense.init(rng);
  Tensor in = random_tensor({2, 8}, rng);

  Tensor out;
  dense.forward_eval(in, out);

  Tensor up = dense.forward(in, true);
  Tensor grad(up.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = 0.25f;
  dense.backward(grad);
  for (auto* p : dense.params())
    for (std::size_t i = 0; i < p->value.size(); ++i)
      p->value[i] -= 0.1f * p->grad[i];

  const Tensor ref = dense.forward(in, false);
  dense.forward_eval(in, out);
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(out[i], ref[i]);
}

TEST(EvalPathTest, SequentialEvalFollowsLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_nn_eval_load.bin").string();
  Sequential a = make_mlp(6, 6, 6);  // square layers
  Sequential b = make_mlp(6, 6, 6);
  math::Rng ra(1), rb(2);
  a.init(ra);
  b.init(rb);
  ASSERT_TRUE(save_params(b, path));

  const Tensor in = random_tensor({3, 6}, ra);
  EvalWorkspace ws;
  (void)a.forward_eval(in, ws);
  ASSERT_TRUE(load_params(a, path));
  const Tensor ref = b.forward(in, false);
  const Tensor& out = a.forward_eval(in, ws);
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(out[i], ref[i]) << i;
  std::filesystem::remove(path);
}

TEST(EvalPathTest, SequentialMatchesForwardThroughWorkspace) {
  math::Rng rng(77);
  Sequential net;
  net.add<Conv2D>(2, 4, 3, 1);
  net.add<ReLU>();
  net.add<MaxPool2D>();
  net.add<Flatten>();
  net.add<Dense>(4 * 6 * 6, 10);
  net.add<Softmax>();
  net.init(rng);

  EvalWorkspace ws;
  for (int pass = 0; pass < 3; ++pass) {
    const Tensor in = random_tensor({2, 2, 12, 12}, rng);
    const Tensor ref = net.forward(in, false);
    const Tensor& out = net.forward_eval(in, ws);
    ASSERT_EQ(out.shape(), ref.shape());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(out[i], ref[i]) << "pass " << pass << " elem " << i;
  }
}

}  // namespace
}  // namespace icoil::nn
