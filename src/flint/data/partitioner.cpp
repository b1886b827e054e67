#include "flint/data/partitioner.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "flint/util/check.h"

namespace flint::data {

FederatedDataset partition_natural(const std::vector<ml::Example>& records,
                                   const std::function<std::uint64_t(std::size_t)>& key_of) {
  FederatedDataset out;
  std::unordered_map<std::uint64_t, ClientId> dense_ids;
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::uint64_t key = key_of(i);
    auto [it, inserted] = dense_ids.emplace(key, dense_ids.size());
    out.append(it->second, {records[i]});
  }
  return out;
}

FederatedDataset partition_dirichlet(const std::vector<ml::Example>& records,
                                     const DirichletPartitionConfig& config, util::Rng& rng) {
  FLINT_CHECK_GT(config.clients, std::size_t{0});
  FLINT_CHECK_GE(config.num_classes, std::size_t{1});
  FLINT_CHECK_FINITE(config.quantity_alpha);
  FLINT_CHECK_GT(config.quantity_alpha, 0.0);
  FLINT_CHECK_FINITE(config.label_alpha);
  FLINT_CHECK_GT(config.label_alpha, 0.0);
  FLINT_CHECK(!records.empty());

  // Quantity shares: how much of the corpus each client receives.
  std::vector<double> quantity = rng.dirichlet(config.clients, config.quantity_alpha);

  // Per-class affinity over clients: class c's records spread across clients
  // following Dirichlet(label_alpha), modulated by quantity share so both
  // skews compose.
  std::vector<util::CategoricalTable> class_affinity;
  class_affinity.reserve(config.num_classes);
  for (std::size_t cls = 0; cls < config.num_classes; ++cls) {
    std::vector<double> aff = rng.dirichlet(config.clients, config.label_alpha);
    for (std::size_t k = 0; k < config.clients; ++k) aff[k] *= quantity[k];
    // Degenerate guard: if modulation zeroed everything (possible with tiny
    // alphas), fall back to the raw quantity shares.
    double sum = 0.0;
    for (double v : aff) sum += v;
    if (sum <= 0.0) aff = quantity;
    class_affinity.emplace_back(aff);
  }

  FederatedDataset out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto cls = static_cast<std::size_t>(std::llround(records[i].label));
    cls = std::min(cls, config.num_classes - 1);
    ClientId client = class_affinity[cls].sample(rng);
    out.append(client, {records[i]});
  }
  return out;
}

FederatedDataset downsample_clients(const FederatedDataset& dataset, double keep_fraction,
                                    util::Rng& rng) {
  FLINT_CHECK_PROB(keep_fraction);
  FLINT_CHECK_GT(keep_fraction, 0.0);
  FederatedDataset out;
  for (const auto& c : dataset.clients())
    if (rng.bernoulli(keep_fraction)) out.add_client(c);
  return out;
}

}  // namespace flint::data
