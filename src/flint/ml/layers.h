// Neural network layers. Each layer owns its parameters (value + gradient)
// and caches whatever it needs from forward() to run backward().
//
// Layers operate on rank-2 activations [batch, features]. Front-end layers
// that consume ragged token ids (EmbeddingBag, HashedBag) expose a separate
// token-based forward and are composed explicitly by models.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flint/ml/tensor.h"
#include "flint/util/rng.h"

namespace flint::ml {

/// The rows of a [rows, cols] gradient that may be non-zero, for parameters
/// whose backward writes a few whole rows of a large table (the embedding
/// bag). While `exact()`, every element outside the marked rows is +0.0, and
/// zero_grad, clip_gradients and SgdOptimizer::step (optimizer.h) may visit
/// the marked rows alone (DESIGN.md §16.5).
class GradRows {
 public:
  /// Track a gradient of `rows` rows. Nothing is known about it until the
  /// first zero_grad(), so the set starts inexact.
  void track(std::size_t rows) {
    bits_.assign((rows + 63) / 64, 0);
    exact_ = false;
  }
  bool exact() const { return exact_; }

  /// Row `row` may now be non-zero.
  void mark(std::size_t row) { bits_[row / 64] |= std::uint64_t{1} << (row % 64); }

  /// The whole gradient was just zeroed: the set is empty and exact.
  void cleared() {
    std::fill(bits_.begin(), bits_.end(), 0);
    exact_ = !bits_.empty();
  }

  /// Something wrote the gradient outside the marked rows.
  void invalidate() { exact_ = false; }

  /// Calls f(row) for every marked row, in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < bits_.size(); ++w)
      for (std::uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1)
        f(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
  }

 private:
  std::vector<std::uint64_t> bits_;
  bool exact_ = false;
};

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
  /// Tracked only for row-sparse gradients (EmbeddingBagLayer's table). Any
  /// code that writes `grad` other than through the owning layer's
  /// backward() and the optimizer.h functions must call invalidate().
  GradRows grad_rows;

  explicit Parameter(std::size_t rows, std::size_t cols) : value(rows, cols), grad(rows, cols) {}
  std::size_t size() const { return value.size(); }
};

/// Base class for dense-activation layers. A layer owns the buffers its
/// forward() and backward() results live in and reuses them across calls;
/// clone() copies parameters only, never those buffers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute output activations; must cache state needed by backward(). The
  /// result stays valid until the next forward() on this layer.
  virtual const Tensor& forward(const Tensor& input) = 0;

  /// Propagate gradients. `d_output` matches the last forward's output shape;
  /// returns gradient w.r.t. that forward's input, valid until the next
  /// backward(). Accumulates into parameter gradients (callers zero_grad()
  /// between steps).
  virtual const Tensor& backward(const Tensor& d_output) = 0;

  /// Mutable views of this layer's parameters (empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Initialize parameters (Xavier-uniform for weight matrices).
  virtual void init(util::Rng& rng) { (void)rng; }

  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Fully connected layer: out = in x W + b. W: [in, out], b: [1, out].
class DenseLayer : public Layer {
 public:
  /// With `input_grad` false, backward() skips the input gradient and
  /// returns an empty tensor: for a first layer whose input has no gradient
  /// consumer (dense features, the hashing front end).
  DenseLayer(std::size_t in_dim, std::size_t out_dim, bool input_grad = true);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  void init(util::Rng& rng) override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  bool input_grad_;
  Parameter weight_;
  Parameter bias_;
  Tensor last_input_;
  Tensor out_;
  Tensor d_weight_;  ///< X^T dY of one backward, added to weight_.grad
  Tensor d_input_;
};

/// Rectified linear activation.
class ReluLayer : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReluLayer>(); }

 private:
  Tensor out_;  ///< also the backward mask: out <= 0 exactly where in <= 0
  Tensor d_input_;
};

/// Logistic sigmoid activation (used inside models that need bounded hidden
/// activations; output heads stay as raw logits for BCE-with-logits).
class SigmoidLayer : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<SigmoidLayer>(); }

 private:
  Tensor out_;
  Tensor d_input_;
};

/// Hyperbolic tangent activation.
class TanhLayer : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<TanhLayer>(); }

 private:
  Tensor out_;
  Tensor d_input_;
};

/// Mean-pooled embedding lookup over ragged token ids ("embedding bag").
/// Token ids outside [0, vocab) are clamped into range — mirrors production
/// vocab files where unknown tokens map to an OOV bucket (id 0).
class EmbeddingBagLayer {
 public:
  EmbeddingBagLayer(std::size_t vocab, std::size_t dim);

  /// [n, dim] mean of each sample's token embeddings (zeros for empty
  /// lists), valid until the next forward().
  const Tensor& forward(const std::vector<std::vector<std::int32_t>>& tokens);

  /// Accumulate gradients for the last forward's lookups, marking the table
  /// rows they touch in its grad_rows.
  void backward(const Tensor& d_output);

  std::vector<Parameter*> parameters() { return {&table_}; }
  void init(util::Rng& rng);

  /// A layer with this one's table, and none of its buffers.
  EmbeddingBagLayer clone() const;

  std::size_t vocab() const { return vocab_; }
  std::size_t dim() const { return dim_; }

 private:
  std::size_t vocab_;
  std::size_t dim_;
  Parameter table_;
  Tensor out_;
  /// The last forward's token ids, flattened; sample i owns
  /// [last_offsets_[i], last_offsets_[i + 1]).
  std::vector<std::int32_t> last_tokens_;
  std::vector<std::size_t> last_offsets_;
};

/// Feature-hashing front end: token ids are hashed into `buckets` and the
/// sample is represented as a normalized multi-hot vector, densified on the
/// fly. This is the Weinberger et al. (2009) trick the paper proposes for
/// replacing large vocab files on device (Section 4.1); collisions trade
/// predictive power for storage.
class HashedBagLayer {
 public:
  HashedBagLayer(std::size_t buckets, std::uint64_t salt = 0x5bd1e995);

  /// [n, buckets] sparse multi-hot (1/sqrt(count) normalized) densified.
  Tensor forward(const std::vector<std::vector<std::int32_t>>& tokens) const;

  std::size_t buckets() const { return buckets_; }

  /// The bucket a token id maps to (exposed for tests and the feature module).
  std::size_t bucket_of(std::int32_t token) const;

 private:
  std::size_t buckets_;
  std::uint64_t salt_;
};

/// 1-D convolution over a token-embedding sequence, followed by global max
/// pooling: input [n, seq*in_ch] (seq positions, channel-major per position),
/// output [n, out_ch]. Used by the paper's Model D ("CNN w/ large embedding").
class Conv1dMaxPoolLayer : public Layer {
 public:
  Conv1dMaxPoolLayer(std::size_t seq_len, std::size_t in_ch, std::size_t out_ch,
                     std::size_t kernel);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::vector<Parameter*> parameters() override { return {&kernel_w_, &kernel_b_}; }
  void init(util::Rng& rng) override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t out_ch() const { return out_ch_; }

 private:
  std::size_t seq_len_;
  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t kernel_;
  Parameter kernel_w_;  ///< [kernel*in_ch, out_ch]
  Parameter kernel_b_;  ///< [1, out_ch]
  Tensor last_input_;
  Tensor out_;
  Tensor d_input_;
  /// argmax position per (sample, out channel) from the last forward.
  std::vector<std::size_t> last_argmax_;
};

}  // namespace flint::ml
