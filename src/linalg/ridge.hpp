// Ridge regression classifier with leave-one-out cross-validated lambda.
//
// This is the classifier of Eq. (7)-(9) in the paper (the sktime/sklearn
// RidgeClassifierCV pairing used with MiniRocket): targets are +-1, the
// decision function is linear, and the ridge penalty lambda is chosen by
// efficient leave-one-out cross-validation.
//
// Because the MiniRocket feature count (~10k) far exceeds the number of
// enrollment samples (tens to hundreds), fitting is done in the dual: with
// centered features Xc (n x p), alpha = (Xc Xc^T + lambda I)^{-1} yc and
// w = Xc^T alpha.  One eigendecomposition of the n x n Gram matrix serves
// the entire lambda grid, and the LOO residual for sample i is
// (y_i - yhat_i) / (1 - H_ii) with H = K (K + lambda I)^{-1}.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace p2auth::linalg {

struct RidgeOptions {
  // Lambda grid; defaults mirror RidgeClassifierCV's
  // alphas=logspace(-3, 3, 10).
  Vector lambdas = {1e-3, 4.64e-3, 2.15e-2, 1e-1, 4.64e-1,
                    2.15e0, 1e1,    4.64e1,  2.15e2, 1e3};
};

class RidgeClassifier {
 public:
  RidgeClassifier() = default;

  // Fits on features X (n samples x p features) and labels in {-1, +1}.
  // Throws std::invalid_argument on shape/label errors.
  void fit(const Matrix& x, std::span<const double> y,
           const RidgeOptions& options = {});

  bool trained() const noexcept { return !weights_.empty(); }

  // Signed decision value w . x + b (positive => class +1).
  double decision(std::span<const double> features) const;

  // Hard label in {-1, +1}.
  int predict(std::span<const double> features) const;

  double chosen_lambda() const noexcept { return chosen_lambda_; }
  double loo_error() const noexcept { return best_loo_error_; }
  const Vector& weights() const noexcept { return weights_; }
  double bias() const noexcept { return bias_; }
  // Leave-one-out decision value for each training sample under the
  // chosen lambda (what the model would have predicted for sample i had
  // it not been trained on it).  Useful for unbiased operating-point
  // selection on imbalanced data.
  const Vector& loo_decisions() const noexcept { return loo_decisions_; }

  // Reassembles a trained classifier from already-parsed parts (weights,
  // bias, lambda; the LOO diagnostics are fit-time-only and not stored) —
  // the entry point of the model-store reader in src/io/.  Throws
  // util::SerializeError on empty weights, non-finite values, or an
  // invalid lambda.
  static RidgeClassifier from_parts(Vector weights, double bias,
                                    double lambda);

 private:
  Vector weights_;
  double bias_ = 0.0;
  double chosen_lambda_ = 0.0;
  double best_loo_error_ = 0.0;
  Vector loo_decisions_;
};

}  // namespace p2auth::linalg
