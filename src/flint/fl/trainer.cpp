#include "flint/fl/trainer.h"

#include <algorithm>

#include "flint/ml/kernels/kernels.h"
#include "flint/ml/loss.h"
#include "flint/ml/optimizer.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"

namespace flint::fl {

LocalTrainer::LocalTrainer(std::unique_ptr<ml::Model> model, std::size_t dense_dim)
    : model_(std::move(model)), dense_dim_(dense_dim) {
  FLINT_CHECK(model_ != nullptr);
}

double LocalTrainer::train_classification(std::span<const ml::Example* const> data,
                                          const LocalTrainConfig& config,
                                          const std::vector<ml::Parameter*>& params,
                                          ml::SgdOptimizer& opt) {
  double total_loss = 0.0;
  std::size_t steps = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (std::size_t start = 0; start < data.size(); start += config.batch_size) {
      std::size_t end = std::min(data.size(), start + config.batch_size);
      batch_.assign(data.subspan(start, end - start), dense_dim_);
      ml::Tensor logits = model_->forward(batch_);
      ml::LossResult loss = model_->heads() == 1
                                ? ml::bce_with_logits(logits, batch_.labels)
                                : ml::multitask_bce(logits, {batch_.labels, batch_.labels2});
      step(loss.d_logits, config, params, opt);
      total_loss += loss.loss;
      ++steps;
    }
  }
  return steps == 0 ? 0.0 : total_loss / static_cast<double>(steps);
}

double LocalTrainer::train_ranking(std::span<const ml::Example* const> data,
                                   const LocalTrainConfig& config,
                                   const std::vector<ml::Parameter*>& params,
                                   ml::SgdOptimizer& opt) {
  // Group candidates by ranking group; each group is one SGD step. One
  // stable sort of example pointers (ascending group, original order within
  // a group) into a reused scratch buffer; the groups are spans of it.
  ranking_grouped_.assign(data.begin(), data.end());
  std::stable_sort(ranking_grouped_.begin(), ranking_grouped_.end(),
                   [](const ml::Example* a, const ml::Example* b) { return a->group < b->group; });
  struct GroupSpan {
    std::size_t begin, size;
  };
  std::vector<GroupSpan> groups;
  for (std::size_t i = 0; i < ranking_grouped_.size();) {
    std::size_t j = i + 1;
    while (j < ranking_grouped_.size() &&
           ranking_grouped_[j]->group == ranking_grouped_[i]->group)
      ++j;
    groups.push_back({i, j - i});
    i = j;
  }
  std::span<const ml::Example* const> grouped(ranking_grouped_);
  double total_loss = 0.0;
  std::size_t steps = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const GroupSpan& g : groups) {
      if (g.size < 2) continue;
      batch_.assign(grouped.subspan(g.begin, g.size), dense_dim_);
      ml::Tensor logits = model_->forward(batch_);
      ml::LossResult loss = ml::pairwise_ranking_loss(logits, batch_.labels);
      step(loss.d_logits, config, params, opt);
      total_loss += loss.loss;
      ++steps;
    }
  }
  return steps == 0 ? 0.0 : total_loss / static_cast<double>(steps);
}

void LocalTrainer::step(const ml::Tensor& d_logits, const LocalTrainConfig& config,
                        const std::vector<ml::Parameter*>& params, ml::SgdOptimizer& opt) {
  ml::zero_grad(params);
  model_->backward(d_logits);
  if (config.clip_norm > 0.0) ml::clip_gradients(params, config.clip_norm);
  if (config.prox_mu > 0.0) add_proximal_gradient(params, config.prox_mu);
  opt.step(params, config.lr);
}

void LocalTrainer::add_proximal_gradient(const std::vector<ml::Parameter*>& params, double mu) {
  std::size_t offset = 0;
  for (ml::Parameter* p : params) {
    auto value = p->value.flat();
    auto grad = p->grad.flat();
    for (std::size_t i = 0; i < value.size(); ++i)
      grad[i] += static_cast<float>(mu) * (value[i] - prox_anchor_[offset + i]);
    p->grad_rows.invalidate();
    offset += value.size();
  }
}

LocalTrainResult LocalTrainer::train(std::span<const ml::Example> data,
                                     std::span<const float> global_params,
                                     const LocalTrainConfig& config) {
  view_.resize(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) view_[i] = &data[i];
  return train(view_, global_params, config);
}

LocalTrainResult LocalTrainer::train(std::span<const ml::Example* const> data,
                                     std::span<const float> global_params,
                                     const LocalTrainConfig& config) {
  FLINT_CHECK(!data.empty());
  // Local SGD is the wall-clock hot spot of a model-full simulation; the span
  // makes per-client training cost visible on the wall track of the trace.
  FLINT_TRACE_SPAN("fl.local_sgd", "fl");
  obs::add_counter("fl.local_sgd_calls");
  obs::add_counter("fl.local_sgd_examples", data.size());
  model_->set_flat_parameters(global_params);
  if (config.prox_mu > 0.0) prox_anchor_.assign(global_params.begin(), global_params.end());
  ml::SgdOptimizer opt(config.momentum, 0.0);
  const std::vector<ml::Parameter*> params = model_->parameters();

  double mean_loss = (config.loss == data::LossKind::kPairwiseRanking)
                         ? train_ranking(data, config, params, opt)
                         : train_classification(data, config, params, opt);

  LocalTrainResult result;
  result.mean_loss = mean_loss;
  result.examples = data.size();
  result.delta = model_->get_flat_parameters();
  FLINT_CHECK(result.delta.size() == global_params.size());
  ml::kernels::active().sub(result.delta.data(), global_params.data(), result.delta.size());
  return result;
}

std::vector<double> train_centralized(ml::Model& model, const data::FederatedTask& task,
                                      const LocalTrainConfig& config, int epochs,
                                      util::Rng& rng) {
  FLINT_CHECK(epochs >= 1);
  // The merged dataset is a permutation of pointers into the clients'
  // examples: shuffling it makes the same draws as shuffling copies would,
  // without holding a second copy of every example.
  std::vector<const ml::Example*> all;
  all.reserve(task.train.example_count());
  for (const auto& client : task.train.clients())
    for (const ml::Example& e : client.examples) all.push_back(&e);
  FLINT_CHECK(!all.empty());
  LocalTrainer trainer(model.clone(), task.batch_dense_dim());
  std::vector<float> params = model.get_flat_parameters();
  std::vector<double> curve;
  LocalTrainConfig per_epoch = config;
  per_epoch.epochs = 1;
  for (int e = 0; e < epochs; ++e) {
    if (config.loss != data::LossKind::kPairwiseRanking) rng.shuffle(all);
    LocalTrainResult r = trainer.train(all, params, per_epoch);
    for (std::size_t i = 0; i < params.size(); ++i) params[i] += r.delta[i];
    model.set_flat_parameters(params);
    curve.push_back(task.evaluate(model));
  }
  return curve;
}

}  // namespace flint::fl
