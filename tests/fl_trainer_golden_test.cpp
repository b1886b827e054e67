// Golden-value tests for local SGD: FNV-1a of LocalTrainer::train's delta
// (and mean loss) on small fixed-seed models shaped like the Table 4 case
// studies, pinned once per kernel path. Any change to the order or rounding
// of a training step — kernels, layer buffers, the row-sparse embedding
// update (DESIGN.md §16) — moves a hash. On these shapes the scalar and AVX2
// constants coincide: the only path-dependent kernels (the double dot
// products and sum_squares) round to the same floats. The NEON path has no
// constants yet and is not checked here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "flint/fl/trainer.h"
#include "flint/ml/kernels/kernels.h"
#include "flint/ml/loss.h"
#include "flint/ml/model.h"
#include "flint/ml/optimizer.h"
#include "flint/util/rng.h"

namespace flint {
namespace {

namespace k = ml::kernels;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_result(const fl::LocalTrainResult& r) {
  std::uint64_t h = fnv1a(kFnvOffset, r.delta.data(), r.delta.size() * sizeof(float));
  return fnv1a(h, &r.mean_loss, sizeof(r.mean_loss));
}

/// Examples with `dense_dim` normal features, 0-12 uniform token ids from
/// [0, vocab) when vocab > 0, and round-robin ranking groups when groups > 0.
std::vector<ml::Example> make_examples(std::size_t n, std::size_t dense_dim, std::size_t vocab,
                                       std::int32_t groups, util::Rng& rng) {
  std::vector<ml::Example> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    ml::Example& e = out[i];
    for (std::size_t j = 0; j < dense_dim; ++j)
      e.dense.push_back(static_cast<float>(rng.normal()));
    if (vocab > 0) {
      auto len = rng.uniform_int(0, 12);
      for (std::int64_t t = 0; t < len; ++t)
        e.tokens.push_back(
            static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(vocab) - 1)));
    }
    e.label = rng.bernoulli(0.3) ? 1.0f : 0.0f;
    if (groups > 0) {
      e.group = static_cast<std::int32_t>(i) % groups;
      e.label = static_cast<float>(rng.uniform_int(0, 3));
    }
  }
  return out;
}

ml::FeedForwardConfig ads_config() {
  ml::FeedForwardConfig cfg;
  cfg.dense_dim = 16;
  cfg.hidden = {32, 16};
  return cfg;
}

ml::FeedForwardConfig messaging_config() {
  ml::FeedForwardConfig cfg;
  cfg.front_end = ml::FrontEnd::kEmbedding;
  cfg.vocab = 400;
  cfg.embed_dim = 16;
  cfg.hidden = {16};
  return cfg;
}

/// One LocalTrainer::train call (two epochs over 53 examples: three full
/// batches of 16 and a tail of 5) from a fixed-seed init.
std::uint64_t train_hash(const ml::FeedForwardConfig& cfg, const fl::LocalTrainConfig& local,
                         std::int32_t groups = 0) {
  util::Rng rng(2024);
  auto model = std::make_unique<ml::FeedForwardModel>(cfg);
  model->init(rng);
  std::vector<float> global = model->get_flat_parameters();
  std::vector<ml::Example> data = make_examples(53, cfg.dense_dim, cfg.vocab, groups, rng);
  fl::LocalTrainer trainer(std::move(model), cfg.dense_dim);
  return hash_result(trainer.train(data, global, local));
}

fl::LocalTrainConfig local_config() {
  fl::LocalTrainConfig local;
  local.lr = 0.1;
  local.epochs = 2;
  local.batch_size = 16;
  return local;
}

struct Golden {
  std::uint64_t scalar;
  std::uint64_t avx2;
};

class TrainerGolden : public ::testing::Test {
 protected:
  void SetUp() override { saved_spec_ = k::requested_spec(); }
  void TearDown() override { k::set_path(saved_spec_); }

  /// Runs `hash` on the scalar path and, where the host has it, on AVX2.
  static void expect_golden(const Golden& golden, const std::function<std::uint64_t()>& hash) {
    for (k::KernelPath path : {k::KernelPath::kScalar, k::KernelPath::kAvx2}) {
      if (!k::path_supported(path)) continue;
      k::set_path(k::path_name(path));
      std::uint64_t want = path == k::KernelPath::kScalar ? golden.scalar : golden.avx2;
      EXPECT_EQ(hash(), want) << "on the " << k::path_name(path) << " path: got 0x" << std::hex
                              << hash();
    }
  }

 private:
  std::string saved_spec_;
};

TEST_F(TrainerGolden, AdsDenseMlp) {
  expect_golden({0x1397f19ca112de34ull, 0x1397f19ca112de34ull},
                [] { return train_hash(ads_config(), local_config()); });
}

TEST_F(TrainerGolden, MessagingEmbeddingBagWithClipping) {
  fl::LocalTrainConfig local = local_config();
  local.clip_norm = 0.25;
  expect_golden({0xf51c3aa4cda4a00eull, 0xf51c3aa4cda4a00eull},
                [&] { return train_hash(messaging_config(), local); });
}

TEST_F(TrainerGolden, MessagingWithMomentum) {
  fl::LocalTrainConfig local = local_config();
  local.clip_norm = 0.25;
  local.momentum = 0.9;
  expect_golden({0x8daa78ddf744eef4ull, 0x8daa78ddf744eef4ull},
                [&] { return train_hash(messaging_config(), local); });
}

TEST_F(TrainerGolden, MessagingWithProximalTerm) {
  fl::LocalTrainConfig local = local_config();
  local.prox_mu = 0.1;
  expect_golden({0xcba6ded2deca531bull, 0xcba6ded2deca531bull},
                [&] { return train_hash(messaging_config(), local); });
}

TEST_F(TrainerGolden, EmbeddingConcatenatedWithDenseFeatures) {
  ml::FeedForwardConfig cfg = messaging_config();
  cfg.dense_dim = 8;
  cfg.hidden = {24, 8};
  fl::LocalTrainConfig local = local_config();
  local.clip_norm = 0.5;
  expect_golden({0x50c73243ee364400ull, 0x50c73243ee364400ull},
                [&] { return train_hash(cfg, local); });
}

TEST_F(TrainerGolden, HashingFrontEnd) {
  ml::FeedForwardConfig cfg;
  cfg.front_end = ml::FrontEnd::kHashing;
  cfg.hash_buckets = 64;
  cfg.vocab = 400;  // token range of the generated examples; unused by the model
  cfg.hidden = {16};
  expect_golden({0x09e8e025d5933b3eull, 0x09e8e025d5933b3eull},
                [&] { return train_hash(cfg, local_config()); });
}

TEST_F(TrainerGolden, RankingGroups) {
  fl::LocalTrainConfig local = local_config();
  local.loss = data::LossKind::kPairwiseRanking;
  expect_golden({0x87168c2ca965284eull, 0x87168c2ca965284eull},
                [&] { return train_hash(ads_config(), local, 6); });
}

// SgdOptimizer driven directly with weight decay (the dense step) after the
// row-sparse zero_grad and clip of an embedding table.
TEST_F(TrainerGolden, SgdOptimizerWithWeightDecay) {
  expect_golden({0xc641bfdb057b0864ull, 0xc641bfdb057b0864ull}, [] {
    util::Rng rng(77);
    ml::FeedForwardModel model(messaging_config());
    model.init(rng);
    std::vector<ml::Example> data = make_examples(48, 0, 400, 0, rng);
    ml::SgdOptimizer opt(0.0, 1e-3);
    for (std::size_t start = 0; start < data.size(); start += 16) {
      ml::Batch batch = ml::Batch::from_examples(
          std::span<const ml::Example>(data).subspan(start, 16), 0);
      const ml::Tensor& logits = model.forward(batch);
      ml::LossResult loss = ml::bce_with_logits(logits, batch.labels);
      model.zero_grad();
      model.backward(loss.d_logits);
      ml::clip_gradients(model.parameters(), 0.25);
      opt.step(model.parameters(), 0.1);
    }
    std::vector<float> params = model.get_flat_parameters();
    return fnv1a(kFnvOffset, params.data(), params.size() * sizeof(float));
  });
}

}  // namespace
}  // namespace flint
