// Optimizers for local (on-device) training steps.
#pragma once

#include <vector>

#include "flint/ml/layers.h"

namespace flint::ml {

/// SGD with optional momentum and L2 weight decay. Momentum buffers are keyed
/// by parameter position, so the optimizer must be used with a stable
/// parameter list (one optimizer per model instance).
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double momentum = 0.0, double weight_decay = 0.0);

  /// Apply one update: p -= lr * (grad + wd * p), with momentum if enabled.
  void step(const std::vector<Parameter*>& params, double lr);

  /// Drop momentum state (e.g. when a fresh global model is installed).
  void reset();

  double momentum() const { return momentum_; }
  double weight_decay() const { return weight_decay_; }

 private:
  double momentum_;
  double weight_decay_;
  std::vector<Tensor> velocity_;  ///< one buffer per parameter, lazily sized
};

/// Gradient clipping by global L2 norm; returns the pre-clip norm.
/// Used both as a training stabilizer and as the DP sensitivity bound.
double clip_gradients(const std::vector<Parameter*>& params, double max_norm);

/// Zero every gradient; afterwards each tracked GradRows set is empty and
/// exact.
void zero_grad(const std::vector<Parameter*>& params);

// Row-sparse updates (DESIGN.md §16.5): while a parameter's grad_rows are
// exact, zero_grad, clip_gradients and SgdOptimizer::step visit only its
// marked rows wherever the dense sweep would leave the other rows bit-for-bit
// unchanged. zero_grad always may. clip_gradients may when the row width is
// a multiple of 8, so the marked rows, packed back to back, meet every
// path's sum_squares accumulator lanes where the dense sweep did. step may
// with momentum 0 and weight decay 0, where an unmarked row's update is
// value - lr * (0 + 0 * value) == value for every finite value. Every other
// case takes the dense path.

}  // namespace flint::ml
