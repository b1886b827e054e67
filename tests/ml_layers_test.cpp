#include "flint/ml/layers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "flint/util/rng.h"

namespace flint::ml {
namespace {

/// Scalar objective used for gradient checking: L = sum_i c_i * out_i with
/// fixed pseudo-random coefficients, so dL/dout = c.
Tensor coefficient_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor c(rows, cols);
  for (float& v : c.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return c;
}

double objective(const Tensor& out, const Tensor& c) {
  double acc = 0.0;
  auto fo = out.flat();
  auto fc = c.flat();
  for (std::size_t i = 0; i < fo.size(); ++i) acc += static_cast<double>(fo[i]) * fc[i];
  return acc;
}

/// Check analytic input-gradients and parameter-gradients of `layer` against
/// central finite differences at the given input.
void check_layer_gradients(Layer& layer, Tensor input, double tol = 2e-2) {
  util::Rng rng(99);
  Tensor out = layer.forward(input);
  Tensor c = coefficient_tensor(out.rows(), out.cols(), rng);
  layer.backward(c);  // gradient of L = <c, out>

  // Save analytic parameter gradients (backward accumulated them).
  std::vector<std::vector<float>> analytic_param_grads;
  for (Parameter* p : layer.parameters()) {
    auto g = p->grad.flat();
    analytic_param_grads.emplace_back(g.begin(), g.end());
  }
  Tensor analytic_input_grad = [&] {
    for (Parameter* p : layer.parameters()) p->grad.zero();
    layer.forward(input);
    return layer.backward(c);
  }();

  const float eps = 1e-3f;
  // Input gradient check (sample a few coordinates to keep it fast).
  for (std::size_t i = 0; i < std::min<std::size_t>(input.size(), 12); ++i) {
    float saved = input[i];
    input[i] = saved + eps;
    double up = objective(layer.forward(input), c);
    input[i] = saved - eps;
    double down = objective(layer.forward(input), c);
    input[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic_input_grad[i], numeric, tol)
        << "input grad mismatch at " << i;
  }
  // Parameter gradient check.
  auto params = layer.parameters();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto values = params[pi]->value.flat();
    std::size_t stride = std::max<std::size_t>(1, values.size() / 10);
    for (std::size_t i = 0; i < values.size(); i += stride) {
      float saved = values[i];
      values[i] = saved + eps;
      double up = objective(layer.forward(input), c);
      values[i] = saved - eps;
      double down = objective(layer.forward(input), c);
      values[i] = saved;
      double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic_param_grads[pi][i], numeric, tol)
          << "param " << pi << " grad mismatch at " << i;
    }
  }
}

Tensor random_input(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

TEST(DenseLayer, GradientsMatchFiniteDifferences) {
  util::Rng rng(1);
  DenseLayer layer(5, 3);
  layer.init(rng);
  check_layer_gradients(layer, random_input(4, 5, rng));
}

TEST(DenseLayer, ForwardKnownValues) {
  DenseLayer layer(2, 1);
  // W = [[1],[2]], b = [0.5]
  layer.parameters()[0]->value.at(0, 0) = 1.0f;
  layer.parameters()[0]->value.at(1, 0) = 2.0f;
  layer.parameters()[1]->value[0] = 0.5f;
  Tensor in(1, 2, {3.0f, 4.0f});
  Tensor out = layer.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f + 8.0f + 0.5f);
}

TEST(DenseLayer, WrongInputWidthThrows) {
  DenseLayer layer(4, 2);
  Tensor in(1, 3);
  EXPECT_THROW(layer.forward(in), util::CheckError);
}

TEST(ReluLayer, ForwardAndGradientMask) {
  util::Rng rng(2);
  ReluLayer relu;
  Tensor in(1, 4, {-1.0f, 2.0f, 0.0f, -3.0f});
  Tensor out = relu.forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 2.0f);
  Tensor g(1, 4);
  g.fill(1.0f);
  Tensor din = relu.backward(g);
  EXPECT_EQ(din[0], 0.0f);
  EXPECT_EQ(din[1], 1.0f);
  EXPECT_EQ(din[3], 0.0f);
}

TEST(SigmoidLayer, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  SigmoidLayer layer;
  check_layer_gradients(layer, random_input(3, 4, rng));
}

TEST(TanhLayer, GradientsMatchFiniteDifferences) {
  util::Rng rng(4);
  TanhLayer layer;
  check_layer_gradients(layer, random_input(3, 4, rng));
}

TEST(SigmoidLayer, Range) {
  SigmoidLayer s;
  Tensor in(1, 2, {-50.0f, 50.0f});
  Tensor out = s.forward(in);
  EXPECT_GE(out[0], 0.0f);
  EXPECT_LE(out[1], 1.0f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
}

TEST(EmbeddingBag, MeanPoolsTokenVectors) {
  EmbeddingBagLayer bag(4, 2);
  // Row t = (t, 10t).
  for (std::size_t t = 0; t < 4; ++t) {
    bag.parameters()[0]->value.at(t, 0) = static_cast<float>(t);
    bag.parameters()[0]->value.at(t, 1) = static_cast<float>(10 * t);
  }
  Tensor out = bag.forward({{1, 3}, {}});
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);   // mean(1, 3)
  EXPECT_FLOAT_EQ(out.at(0, 1), 20.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);   // empty token list -> zeros
}

TEST(EmbeddingBag, BackwardDistributesGradients) {
  EmbeddingBagLayer bag(3, 1);
  bag.forward({{0, 1}});
  Tensor g(1, 1);
  g[0] = 1.0f;
  bag.backward(g);
  EXPECT_FLOAT_EQ(bag.parameters()[0]->grad.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(bag.parameters()[0]->grad.at(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(bag.parameters()[0]->grad.at(2, 0), 0.0f);
}

TEST(EmbeddingBag, OutOfRangeTokensClampToOov) {
  EmbeddingBagLayer bag(2, 1);
  bag.parameters()[0]->value.at(0, 0) = 5.0f;
  bag.parameters()[0]->value.at(1, 0) = 7.0f;
  Tensor out = bag.forward({{-3}, {100}});
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);  // clamps to id 0
  EXPECT_FLOAT_EQ(out.at(1, 0), 7.0f);  // clamps to last id
}

TEST(HashedBag, DeterministicAndInRange) {
  HashedBagLayer bag(16);
  for (std::int32_t t = 0; t < 100; ++t) {
    std::size_t b1 = bag.bucket_of(t);
    std::size_t b2 = bag.bucket_of(t);
    EXPECT_EQ(b1, b2);
    EXPECT_LT(b1, 16u);
  }
}

TEST(HashedBag, ForwardNormalization) {
  HashedBagLayer bag(8);
  Tensor out = bag.forward({{1, 2, 3, 4}});
  // Four tokens, each contributing 1/sqrt(4) = 0.5; total mass = 2.0 if no
  // collisions, less concentrated otherwise — l1 norm is exactly 2.0.
  double l1 = 0.0;
  for (float v : out.flat()) l1 += std::abs(v);
  EXPECT_NEAR(l1, 2.0, 1e-5);
}

TEST(Conv1dMaxPool, GradientsMatchFiniteDifferences) {
  util::Rng rng(5);
  Conv1dMaxPoolLayer layer(/*seq_len=*/6, /*in_ch=*/3, /*out_ch=*/2, /*kernel=*/2);
  layer.init(rng);
  check_layer_gradients(layer, random_input(2, 18, rng), /*tol=*/5e-2);
}

TEST(Conv1dMaxPool, OutputShape) {
  util::Rng rng(6);
  Conv1dMaxPoolLayer layer(8, 4, 5, 3);
  layer.init(rng);
  Tensor out = layer.forward(random_input(3, 32, rng));
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 5u);
}

TEST(Conv1dMaxPool, RejectsBadKernel) {
  EXPECT_THROW(Conv1dMaxPoolLayer(4, 2, 2, 5), util::CheckError);
}

TEST(DenseLayer, ForwardAndBackwardReuseTheirBuffers) {
  util::Rng rng(8);
  DenseLayer layer(6, 4);
  layer.init(rng);
  Tensor in_a = random_input(5, 6, rng), in_b = random_input(5, 6, rng);
  const Tensor* out = &layer.forward(in_a);
  const Tensor* din = &layer.backward(coefficient_tensor(5, 4, rng));
  Tensor expected = layer.forward(in_b);  // a copy of the second result
  EXPECT_EQ(&layer.forward(in_b), out);
  EXPECT_TRUE(*out == expected);
  EXPECT_EQ(&layer.backward(coefficient_tensor(5, 4, rng)), din);
}

TEST(DenseLayer, WithoutInputGradientKeepsParameterGradients) {
  util::Rng rng(9);
  DenseLayer full(5, 3);
  full.init(rng);
  DenseLayer first(5, 3, /*input_grad=*/false);
  for (std::size_t i = 0; i < 2; ++i)
    first.parameters()[i]->value = full.parameters()[i]->value;
  Tensor in = random_input(4, 5, rng);
  Tensor g = coefficient_tensor(4, 3, rng);
  full.forward(in);
  EXPECT_EQ(full.backward(g).rows(), 4u);
  first.forward(in);
  EXPECT_TRUE(first.backward(g).empty());
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(first.parameters()[i]->grad == full.parameters()[i]->grad);
}

TEST(Layers, CloneCopiesParametersNotBuffers) {
  util::Rng rng(10);
  DenseLayer layer(3, 2);
  layer.init(rng);
  Tensor in = random_input(4, 3, rng);
  layer.forward(in);
  auto copy = layer.clone();
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(copy->parameters()[i]->value == layer.parameters()[i]->value);
  // The clone has seen no forward(), so it has no cached input to back-prop.
  EXPECT_THROW(copy->backward(coefficient_tensor(4, 2, rng)), util::CheckError);
  EXPECT_TRUE(copy->forward(in) == layer.forward(in));
}

TEST(Layers, CloneIsDeepCopy) {
  util::Rng rng(7);
  DenseLayer layer(3, 2);
  layer.init(rng);
  auto copy = layer.clone();
  // Mutate the original; the clone must not change.
  float before = copy->parameters()[0]->value[0];
  layer.parameters()[0]->value[0] += 10.0f;
  EXPECT_EQ(copy->parameters()[0]->value[0], before);
}

}  // namespace
}  // namespace flint::ml
