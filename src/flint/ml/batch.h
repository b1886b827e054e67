// Example and Batch: the data interchange types between FLINT's data pipeline
// and its models. Examples carry dense features, optional token/categorical
// ids (consumed by embedding or hashing front-ends), and labels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flint/ml/tensor.h"

namespace flint::ml {

/// One training/inference record.
struct Example {
  std::vector<float> dense;          ///< Dense feature vector.
  std::vector<std::int32_t> tokens;  ///< Categorical/token ids (may be empty).
  float label = 0.0f;                ///< Primary task label (0/1 or relevance grade).
  float label2 = 0.0f;               ///< Secondary task label (multi-task models).
  std::int32_t group = 0;            ///< Ranking group id (query/session); 0 if unused.
};

/// A mini-batch assembled from examples. Dense features are densified into a
/// [n, dense_dim] tensor; token ids stay ragged for embedding-bag lookup.
struct Batch {
  Tensor dense;                                  ///< [n, dense_dim]
  std::vector<std::vector<std::int32_t>> tokens; ///< n ragged token lists
  std::vector<float> labels;                     ///< n primary labels
  std::vector<float> labels2;                    ///< n secondary labels

  std::size_t size() const { return labels.size(); }

  /// Build a batch; every example's dense vector must have length dense_dim
  /// (use 0 for models with no dense features).
  static Batch from_examples(std::span<const Example> examples, std::size_t dense_dim) {
    return gather(examples.size(), dense_dim,
                  [examples](std::size_t i) -> const Example& { return examples[i]; });
  }

  /// The same, gathered through pointers: a permuted or grouped view of
  /// examples stored elsewhere, batched without copying the examples first.
  static Batch from_examples(std::span<const Example* const> examples, std::size_t dense_dim) {
    return gather(examples.size(), dense_dim,
                  [examples](std::size_t i) -> const Example& { return *examples[i]; });
  }

 private:
  template <typename At>
  static Batch gather(std::size_t n, std::size_t dense_dim, At at) {
    Batch b;
    b.dense = Tensor(n, dense_dim == 0 ? 1 : dense_dim);
    if (dense_dim == 0) b.dense.zero();
    b.tokens.reserve(n);
    b.labels.reserve(n);
    b.labels2.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Example& e = at(i);
      if (dense_dim > 0) {
        FLINT_CHECK_MSG(e.dense.size() == dense_dim,
                        "example dense dim " << e.dense.size() << " != batch dim " << dense_dim);
        for (std::size_t j = 0; j < dense_dim; ++j) b.dense.at(i, j) = e.dense[j];
      }
      b.tokens.push_back(e.tokens);
      b.labels.push_back(e.label);
      b.labels2.push_back(e.label2);
    }
    return b;
  }
};

}  // namespace flint::ml
