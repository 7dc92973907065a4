#include "linalg/ridge.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::linalg {

RidgeClassifier RidgeClassifier::from_parts(Vector weights, double bias,
                                            double lambda) {
  RidgeClassifier clf;
  clf.weights_ = std::move(weights);
  clf.bias_ = bias;
  clf.chosen_lambda_ = lambda;
  if (clf.weights_.empty()) {
    throw util::SerializeError(util::SerializeErrc::kBadShape,
                               "RidgeClassifier::from_parts: empty weights");
  }
  // A corrupted template store must reject loudly here, not produce NaN
  // decision scores at auth time.
  for (const double w : clf.weights_) {
    if (!std::isfinite(w)) {
      throw util::SerializeError(
          util::SerializeErrc::kBadValue,
          "RidgeClassifier::from_parts: non-finite weight");
    }
  }
  if (!std::isfinite(clf.bias_)) {
    throw util::SerializeError(util::SerializeErrc::kBadValue,
                               "RidgeClassifier::from_parts: non-finite bias");
  }
  if (!std::isfinite(clf.chosen_lambda_) || clf.chosen_lambda_ <= 0.0) {
    throw util::SerializeError(util::SerializeErrc::kBadValue,
                               "RidgeClassifier::from_parts: invalid lambda");
  }
  return clf;
}

void RidgeClassifier::fit(const Matrix& x, std::span<const double> y,
                          const RidgeOptions& options) {
  const obs::Span span("ridge.fit", "linalg");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  if (n == 0 || p == 0) throw std::invalid_argument("RidgeClassifier: empty");
  if (y.size() != n) {
    throw std::invalid_argument("RidgeClassifier: label count mismatch");
  }
  if (options.lambdas.empty()) {
    throw std::invalid_argument("RidgeClassifier: empty lambda grid");
  }
  for (const double v : y) {
    if (v != 1.0 && v != -1.0) {
      throw std::invalid_argument("RidgeClassifier: labels must be +-1");
    }
  }

  // Intercept handling: augment the features with a constant column so
  // the leave-one-out identity below stays exact (centering on the full
  // sample would leak the held-out point into every fold).  The intercept
  // is therefore lightly penalised, which is harmless at this scale.
  const double intercept_column = options.fit_intercept ? 1.0 : 0.0;

  // Dual formulation on the n x n Gram matrix of the augmented features.
  Matrix k = x.gram_rows();
  if (options.fit_intercept) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) k(i, j) += 1.0;
    }
  }
  const EigenDecomposition eig = eigen_symmetric(k);
  const Vector yv(y.begin(), y.end());
  // q_ty = Q^T y
  const Vector q_ty = eig.vectors.multiply_transposed(yv);

  for (const double lambda : options.lambdas) {
    if (lambda <= 0.0) {
      throw std::invalid_argument("RidgeClassifier: lambda must be > 0");
    }
  }

  // Clamped eigenvalues and the element-wise square Q^2 are shared by
  // every grid point: diag_i(lambda) = sum_k Q2_ik / (mu_k + lambda), so
  // computing Q2 once removes the per-lambda O(n^2) squaring pass.
  Vector mu(n);
  for (std::size_t kk = 0; kk < n; ++kk) {
    mu[kk] = std::max(eig.values[kk], 0.0);
  }
  Matrix q2(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t kk = 0; kk < n; ++kk) {
      const double q = eig.vectors(i, kk);
      q2(i, kk) = q * q;
    }
  }

  // One independent leave-one-out cross-validation pass per grid point,
  // fanned out on the shared pool (inline when fit already runs inside a
  // pool task).  Each pass writes only its own slot; the winner is picked
  // serially below in grid order, so the chosen lambda, LOO error and
  // weights are bit-identical to serial execution.
  struct GridPoint {
    bool degenerate = true;
    double err = std::numeric_limits<double>::infinity();
    Vector alpha;
    Vector loo;
  };
  std::vector<GridPoint> grid(options.lambdas.size());
  try {
    util::parallel_for(options.lambdas.size(), /*chunk=*/1, [&](std::size_t g) {
      const double lambda = options.lambdas[g];
      obs::add_counter("ridge.lambda_iterations");
      const obs::ScopedLatency iteration("ridge.lambda_iteration_us");
      // alpha = Q diag(1/(mu + lambda)) Q^T yc
      Vector scaled(n);
      for (std::size_t kk = 0; kk < n; ++kk) {
        scaled[kk] = q_ty[kk] / (mu[kk] + lambda);
      }
      Vector alpha = eig.vectors.multiply(scaled);
      // LOO residuals: e_i = alpha_i / diag_i where yhat = K alpha,
      // residual y - yhat = lambda * alpha, and
      // diag_i = [ (K + lambda I)^{-1} ]_ii = sum_k Q_ik^2 / (mu_k + lambda).
      double err = 0.0;
      Vector loo(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        double diag = 0.0;
        for (std::size_t kk = 0; kk < n; ++kk) {
          diag += q2(i, kk) / (mu[kk] + lambda);
        }
        if (diag <= 1e-300) return;  // leave this grid point degenerate
        const double loo_residual = alpha[i] / diag;
        err += loo_residual * loo_residual;
        // The LOO prediction of y_i (uncentered): y_i minus its residual.
        loo[i] = y[i] - loo_residual;
      }
      GridPoint& out = grid[g];
      out.degenerate = false;
      out.err = err / static_cast<double>(n);
      out.alpha = std::move(alpha);
      out.loo = std::move(loo);
    });
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }

  double best_err = std::numeric_limits<double>::infinity();
  double best_lambda = options.lambdas.front();
  Vector best_alpha;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    GridPoint& point = grid[g];
    if (point.degenerate || point.err >= best_err) continue;
    best_err = point.err;
    best_lambda = options.lambdas[g];
    best_alpha = std::move(point.alpha);
    loo_decisions_ = std::move(point.loo);
  }
  if (best_alpha.empty()) {
    throw std::domain_error("RidgeClassifier: all lambdas degenerate");
  }

  // Primal weights w = X^T alpha; the intercept is the weight of the
  // constant column, sum(alpha) * intercept_column.
  weights_.assign(p, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    axpy(best_alpha[i], x.row(i), weights_);
  }
  bias_ = 0.0;
  for (const double a : best_alpha) bias_ += a * intercept_column;
  chosen_lambda_ = best_lambda;
  best_loo_error_ = best_err;
  obs::add_counter("ridge.fits");
  obs::set_gauge("ridge.chosen_lambda", chosen_lambda_);
  obs::set_gauge("ridge.best_loo_error", best_loo_error_);
}

double RidgeClassifier::decision(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("RidgeClassifier: not trained");
  if (features.size() != weights_.size()) {
    throw std::invalid_argument("RidgeClassifier: feature size mismatch");
  }
  return dot(features, weights_) + bias_;
}

int RidgeClassifier::predict(std::span<const double> features) const {
  return decision(features) >= 0.0 ? 1 : -1;
}

}  // namespace p2auth::linalg
