// Integration tests: do the optimizer + losses + models actually learn?
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "flint/ml/kernels/kernels.h"
#include "flint/ml/loss.h"
#include "flint/ml/metrics.h"
#include "flint/ml/model.h"
#include "flint/ml/optimizer.h"
#include "flint/util/rng.h"

namespace flint::ml {
namespace {

/// Linearly separable binary data: label = 1 iff w.x > 0 for the GIVEN
/// ground-truth w (shared between train and test splits).
std::vector<Example> separable_data(std::size_t n, const std::vector<float>& w,
                                    util::Rng& rng) {
  std::size_t dim = w.size();
  std::vector<Example> out(n);
  for (auto& e : out) {
    e.dense.resize(dim);
    double dot = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      e.dense[j] = static_cast<float>(rng.normal());
      dot += static_cast<double>(e.dense[j]) * w[j];
    }
    e.label = dot > 0.0 ? 1.0f : 0.0f;
  }
  return out;
}

double eval_aupr(Model& model, const std::vector<Example>& data, std::size_t dim) {
  Batch batch = Batch::from_examples(data, dim);
  Tensor logits = model.forward(batch);
  std::vector<float> scores, labels;
  for (std::size_t i = 0; i < data.size(); ++i) {
    scores.push_back(stable_sigmoid(logits.at(i, 0)));
    labels.push_back(data[i].label);
  }
  return average_precision(scores, labels);
}

TEST(Training, MlpLearnsSeparableData) {
  util::Rng rng(1);
  constexpr std::size_t kDim = 8;
  std::vector<float> w(kDim);
  for (float& v : w) v = static_cast<float>(rng.normal());
  auto train = separable_data(400, w, rng);
  auto test = separable_data(200, w, rng);

  FeedForwardConfig cfg;
  cfg.dense_dim = kDim;
  cfg.hidden = {16};
  FeedForwardModel model(cfg);
  model.init(rng);

  double before = eval_aupr(model, test, kDim);
  SgdOptimizer opt(0.9, 0.0);
  for (int epoch = 0; epoch < 40; ++epoch) {
    for (std::size_t start = 0; start < train.size(); start += 32) {
      std::size_t end = std::min(train.size(), start + 32);
      Batch batch =
          Batch::from_examples(std::span(train).subspan(start, end - start), kDim);
      Tensor logits = model.forward(batch);
      auto loss = bce_with_logits(logits, batch.labels);
      model.zero_grad();
      model.backward(loss.d_logits);
      opt.step(model.parameters(), 0.03);
    }
  }
  double after = eval_aupr(model, test, kDim);
  EXPECT_GT(after, 0.95);
  EXPECT_GT(after, before);
}

TEST(Training, LossDecreasesMonotonically) {
  util::Rng rng(2);
  constexpr std::size_t kDim = 4;
  std::vector<float> w(kDim);
  for (float& v : w) v = static_cast<float>(rng.normal());
  auto train = separable_data(200, w, rng);
  FeedForwardConfig cfg;
  cfg.dense_dim = kDim;
  cfg.hidden = {8};
  FeedForwardModel model(cfg);
  model.init(rng);
  SgdOptimizer opt;
  Batch batch = Batch::from_examples(train, kDim);
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 100; ++step) {
    Tensor logits = model.forward(batch);
    auto loss = bce_with_logits(logits, batch.labels);
    if (step == 0) first = loss.loss;
    last = loss.loss;
    model.zero_grad();
    model.backward(loss.d_logits);
    opt.step(model.parameters(), 0.2);
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(Training, RankingImprovesNdcg) {
  util::Rng rng(3);
  constexpr std::size_t kDim = 6;
  std::vector<float> w(kDim);
  for (float& v : w) v = static_cast<float>(rng.normal());
  // Groups of 6 candidates; relevance follows w*.x ranking.
  auto make_group = [&](std::vector<Example>& out) {
    std::vector<std::pair<double, std::size_t>> scored;
    std::size_t base = out.size();
    for (std::size_t c = 0; c < 6; ++c) {
      Example e;
      e.dense.resize(kDim);
      double dot = 0.0;
      for (std::size_t j = 0; j < kDim; ++j) {
        e.dense[j] = static_cast<float>(rng.normal());
        dot += static_cast<double>(e.dense[j]) * w[j];
      }
      scored.push_back({dot, base + c});
      out.push_back(std::move(e));
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    out[scored[0].second].label = 2.0f;
    out[scored[1].second].label = 1.0f;
  };
  std::vector<Example> train;
  for (int g = 0; g < 80; ++g) make_group(train);
  std::vector<Example> test;
  for (int g = 0; g < 30; ++g) make_group(test);

  FeedForwardConfig cfg;
  cfg.dense_dim = kDim;
  cfg.hidden = {12};
  FeedForwardModel model(cfg);
  model.init(rng);

  auto mean_ndcg = [&](const std::vector<Example>& data) {
    double total = 0.0;
    std::size_t groups = data.size() / 6;
    for (std::size_t g = 0; g < groups; ++g) {
      std::span<const Example> members(&data[g * 6], 6);
      Batch batch = Batch::from_examples(members, kDim);
      Tensor logits = model.forward(batch);
      std::vector<float> scores, labels;
      for (std::size_t i = 0; i < 6; ++i) {
        scores.push_back(logits.at(i, 0));
        labels.push_back(members[i].label);
      }
      total += ndcg_at_k(scores, labels, 10);
    }
    return total / static_cast<double>(groups);
  };

  double before = mean_ndcg(test);
  SgdOptimizer opt(0.9, 0.0);
  for (int epoch = 0; epoch < 25; ++epoch) {
    for (std::size_t g = 0; g < train.size() / 6; ++g) {
      std::span<const Example> members(&train[g * 6], 6);
      Batch batch = Batch::from_examples(members, kDim);
      Tensor logits = model.forward(batch);
      auto loss = pairwise_ranking_loss(logits, batch.labels);
      model.zero_grad();
      model.backward(loss.d_logits);
      opt.step(model.parameters(), 0.05);
    }
  }
  double after = mean_ndcg(test);
  EXPECT_GT(after, before + 0.05);
  EXPECT_GT(after, 0.85);
}

TEST(Optimizer, MomentumAcceleratesOnQuadratic) {
  // Single-parameter quadratic: momentum should reach the optimum faster.
  auto run = [](double momentum) {
    Parameter p(1, 1);
    p.value[0] = 10.0f;
    SgdOptimizer opt(momentum, 0.0);
    std::vector<Parameter*> params = {&p};
    for (int i = 0; i < 50; ++i) {
      p.grad[0] = 2.0f * p.value[0];  // d/dx x^2
      opt.step(params, 0.02);
      p.grad.zero();
    }
    return std::abs(p.value[0]);
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Parameter p(1, 1);
  p.value[0] = 1.0f;
  SgdOptimizer opt(0.0, 0.1);
  std::vector<Parameter*> params = {&p};
  for (int i = 0; i < 10; ++i) opt.step(params, 0.1);  // zero gradient
  EXPECT_LT(p.value[0], 1.0f);
  EXPECT_GT(p.value[0], 0.0f);
}

TEST(Optimizer, ClipGradientsBoundsNorm) {
  Parameter p(1, 4);
  for (std::size_t i = 0; i < 4; ++i) p.grad[i] = 10.0f;
  std::vector<Parameter*> params = {&p};
  double pre_norm = clip_gradients(params, 1.0);
  EXPECT_NEAR(pre_norm, 20.0, 1e-4);
  double post = 0.0;
  for (std::size_t i = 0; i < 4; ++i) post += p.grad[i] * p.grad[i];
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-5);
}

TEST(Optimizer, ClipLeavesSmallGradientsAlone) {
  Parameter p(1, 2);
  p.grad[0] = 0.1f;
  std::vector<Parameter*> params = {&p};
  clip_gradients(params, 1.0);
  EXPECT_FLOAT_EQ(p.grad[0], 0.1f);
}

/// Restores the kernel path a test pinned, however the test exits.
struct RestoreKernelPath {
  std::string spec = kernels::requested_spec();
  ~RestoreKernelPath() { kernels::set_path(spec); }
};

// Row-sparse zero_grad/clip/step (DESIGN.md §16.5) against the dense sweeps
// they stand in for: a twin model whose grad_rows are invalidated after every
// backward takes the dense path everywhere, and both must stay bit-equal on
// every kernel path. Covers a row width the sparse clip accepts (16), one it
// rejects (12), and the momentum / weight-decay steps that must go dense.
TEST(Optimizer, RowSparseUpdatesMatchDenseSweeps) {
  RestoreKernelPath restore;
  struct Case {
    std::size_t embed_dim;
    double momentum, weight_decay;
  };
  for (const Case& c : {Case{16, 0.0, 0.0}, Case{12, 0.0, 0.0}, Case{16, 0.9, 0.0},
                        Case{16, 0.0, 1e-3}}) {
    for (kernels::KernelPath path : {kernels::KernelPath::kScalar, kernels::KernelPath::kAvx2,
                                     kernels::KernelPath::kNeon}) {
      if (!kernels::path_supported(path)) continue;
      kernels::set_path(kernels::path_name(path));
      FeedForwardConfig cfg;
      cfg.front_end = FrontEnd::kEmbedding;
      cfg.vocab = 300;
      cfg.embed_dim = c.embed_dim;
      cfg.hidden = {8};
      util::Rng rng(11);
      FeedForwardModel sparse(cfg);
      sparse.init(rng);
      FeedForwardModel dense(sparse);
      std::vector<Parameter*> sp = sparse.parameters();
      std::vector<Parameter*> dp = dense.parameters();
      SgdOptimizer sparse_opt(c.momentum, c.weight_decay), dense_opt(c.momentum, c.weight_decay);
      for (int step = 0; step < 12; ++step) {
        std::vector<Example> examples(16);
        for (Example& e : examples) {
          auto len = rng.uniform_int(0, 10);
          for (std::int64_t t = 0; t < len; ++t)
            e.tokens.push_back(static_cast<std::int32_t>(rng.uniform_int(0, 299)));
          e.label = rng.bernoulli(0.4) ? 1.0f : 0.0f;
        }
        Batch batch = Batch::from_examples(examples, 0);
        std::vector<double> norms;
        for (auto [model, params, opt] : {std::tuple{&sparse, &sp, &sparse_opt},
                                          std::tuple{&dense, &dp, &dense_opt}}) {
          LossResult loss = bce_with_logits(model->forward(batch), batch.labels);
          zero_grad(*params);
          model->backward(loss.d_logits);
          if (model == &dense) {
            for (Parameter* p : *params) p->grad_rows.invalidate();
          } else {
            EXPECT_TRUE(params->front()->grad_rows.exact());
          }
          norms.push_back(clip_gradients(*params, 0.05));  // small enough to clip every step
          opt->step(*params, 0.5);
        }
        // The pre-clip norm is a double: any change in summation order shows.
        EXPECT_EQ(0, std::memcmp(&norms[0], &norms[1], sizeof(double)))
            << "norms " << norms[0] << " vs " << norms[1] << " at step " << step;
        std::vector<float> a = sparse.get_flat_parameters(), b = dense.get_flat_parameters();
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
            << "row-sparse update diverged at step " << step << " on "
            << kernels::path_name(path) << " (dim " << c.embed_dim << ", momentum "
            << c.momentum << ", weight decay " << c.weight_decay << ")";
      }
    }
  }
}

// The packed sum of squares must equal the dense one bit for bit. Squares
// spread over many binades make the double sum round, so a packing that
// put rows on different accumulator lanes (a row width the sparse clip
// should refuse) would change the norm.
TEST(Optimizer, RowSparseClipNormIsBitExact) {
  RestoreKernelPath restore;
  for (kernels::KernelPath path : {kernels::KernelPath::kScalar, kernels::KernelPath::kAvx2,
                                   kernels::KernelPath::kNeon}) {
    if (!kernels::path_supported(path)) continue;
    kernels::set_path(kernels::path_name(path));
    for (std::size_t cols : {4, 8, 12, 16, 20}) {
      util::Rng rng(500 + cols);
      Parameter sparse(97, cols);
      sparse.grad_rows.track(97);
      zero_grad({&sparse});
      for (std::size_t r = 0; r < 97; ++r) {
        if (!rng.bernoulli(0.4)) continue;
        sparse.grad_rows.mark(r);
        for (float& v : sparse.grad.row(r)) {
          auto binade = static_cast<int>(rng.uniform_int(-30, 30));
          v = static_cast<float>(std::ldexp(rng.normal(), binade));
        }
      }
      Parameter dense = sparse;
      dense.grad_rows.invalidate();
      double a = clip_gradients({&sparse}, 1e30), b = clip_gradients({&dense}, 1e30);
      EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double)))
          << "norm " << a << " vs " << b << " at width " << cols << " on "
          << kernels::path_name(path);
    }
  }
}

TEST(Optimizer, ZeroGradClearsEveryMarkedRow) {
  EmbeddingBagLayer bag(10, 8);
  std::vector<Parameter*> params = bag.parameters();
  Parameter& table = *params[0];
  EXPECT_FALSE(table.grad_rows.exact());  // unknown until the first zero_grad
  zero_grad(params);
  EXPECT_TRUE(table.grad_rows.exact());
  bag.forward({{1, 7}, {7, 42}});  // 42 clamps into row 9
  Tensor g(2, 8);
  g.fill(1.0f);
  bag.backward(g);
  std::vector<std::size_t> rows;
  table.grad_rows.for_each([&](std::size_t r) { rows.push_back(r); });
  EXPECT_EQ(rows, (std::vector<std::size_t>{1, 7, 9}));
  zero_grad(params);
  for (float v : table.grad.flat()) EXPECT_EQ(v, 0.0f);
  rows.clear();
  table.grad_rows.for_each([&](std::size_t r) { rows.push_back(r); });
  EXPECT_TRUE(rows.empty());
}

}  // namespace
}  // namespace flint::ml
