#pragma once

// Dense reference implementation of the ADMM QP solver: the same OSQP
// iteration as math::QpSolver (the shared math::ruiz_equilibrate scaling,
// unscaled termination, scaled-residual rho rule, sigma, alpha, check
// cadence, tolerances, x/y/rho warm start) on dense P, A and A^T with a
// dense O(n^3) LDLT refactored on every rho change. It is the differential
// oracle of the sparse solver (qp_parity_test) and the baseline of its
// micro-benchmark. Header-only, so every tests/*.cpp can include it
// without being linked into an executable of its own.

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "mathkit/matrix.hpp"
#include "mathkit/qp.hpp"

namespace icoil::oracle {

/// Dense LDL^T of a symmetric quasi-definite matrix.
class DenseLdlt {
 public:
  /// Factorize `m` (square, symmetric; only the lower triangle is read).
  /// std::nullopt when a pivot collapses below `pivot_tol`.
  static std::optional<DenseLdlt> factorize(const math::Matrix& m,
                                            double pivot_tol = 1e-12) {
    if (m.rows() != m.cols()) return std::nullopt;
    const std::size_t n = m.rows();
    DenseLdlt f;
    f.n_ = n;
    f.l_ = math::Matrix::identity(n);
    f.d_.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double dj = m(j, j);
      for (std::size_t k = 0; k < j; ++k) dj -= f.l_(j, k) * f.l_(j, k) * f.d_[k];
      if (std::abs(dj) < pivot_tol) return std::nullopt;
      f.d_[j] = dj;
      for (std::size_t i = j + 1; i < n; ++i) {
        double v = m(i, j);
        for (std::size_t k = 0; k < j; ++k) v -= f.l_(i, k) * f.l_(j, k) * f.d_[k];
        f.l_(i, j) = v / dj;
      }
    }
    return f;
  }

  std::vector<double> solve(const std::vector<double>& b) const {
    std::vector<double> x = b;
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t k = 0; k < i; ++k) x[i] -= l_(i, k) * x[k];
    for (std::size_t i = 0; i < n_; ++i) x[i] /= d_[i];
    for (std::size_t ii = n_; ii-- > 0;)
      for (std::size_t k = ii + 1; k < n_; ++k) x[ii] -= l_(k, ii) * x[k];
    return x;
  }

 private:
  std::size_t n_ = 0;
  math::Matrix l_;          // unit lower triangular
  std::vector<double> d_;  // diagonal
};

/// The dense ADMM solver. Validation is the sparse solver's
/// (`QpProblem::valid`), so both reject the same inputs, and so is the
/// equilibration (`math::ruiz_equilibrate`): the iteration below runs on
/// the scaled problem and maps warm starts, residuals and results as
/// math::QpSolver documents.
inline math::QpResult dense_qp_solve(const math::QpProblem& caller,
                                     const math::QpSettings& settings = {},
                                     const math::QpWarmStart& warm = {}) {
  using math::Matrix;
  math::QpResult res;
  if (!caller.valid()) {
    res.status = math::QpStatus::kInvalidProblem;
    return res;
  }
  math::QpProblem prob = caller;
  math::QpScaling scaling;
  math::ruiz_equilibrate(prob, scaling);
  const std::vector<double>& d = scaling.d;
  const std::vector<double>& d_inv = scaling.d_inv;
  const std::vector<double>& e = scaling.e;
  const std::vector<double>& e_inv = scaling.e_inv;
  const double c_inv = 1.0 / scaling.c;
  const std::size_t n = prob.num_vars();
  const std::size_t m = prob.num_constraints();
  const Matrix p = prob.p.to_dense();
  double rho = std::isfinite(warm.rho) && warm.rho > 0.0
                   ? std::clamp(warm.rho, 1e-6, 1e6)
                   : settings.rho;
  res.rho = rho;
  const double sigma = settings.sigma;
  const double alpha = settings.alpha;
  // x = D x' on the caller's problem, with its objective.
  auto finish = [&](const std::vector<double>& x_scaled) {
    res.x.resize(n);
    for (std::size_t j = 0; j < n; ++j) res.x[j] = d[j] * x_scaled[j];
    res.objective =
        0.5 * math::dot(res.x, caller.p.apply(res.x)) + math::dot(caller.q, res.x);
  };
  // ‖w∘v‖∞, NaN-propagating as math::norm_inf is.
  auto weighted_norm = [](const std::vector<double>& v, const std::vector<double>& w) {
    std::vector<double> wv(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) wv[i] = w[i] * v[i];
    return math::norm_inf(wv);
  };

  if (m == 0) {
    Matrix k = p;
    for (std::size_t i = 0; i < n; ++i) k(i, i) += sigma;
    const auto f = DenseLdlt::factorize(k);
    if (!f) {
      res.status = math::QpStatus::kSingularKkt;
      return res;
    }
    finish(f->solve(math::scale(prob.q, -1.0)));
    res.status = math::QpStatus::kSolved;
    return res;
  }

  const Matrix a = prob.a.to_dense();
  const Matrix at = a.transpose();
  auto rho_row = [&](double rho_val, std::size_t i) {
    return prob.l[i] == prob.u[i] ? 1e3 * rho_val : rho_val;
  };
  auto build_kkt = [&](double rho_val) {
    // K = P + sigma I + A^T diag(rho_vec) A
    Matrix k = p;
    for (std::size_t i = 0; i < n; ++i) k(i, i) += sigma;
    for (std::size_t r = 0; r < m; ++r) {
      const double rr = rho_row(rho_val, r);
      for (std::size_t i = 0; i < n; ++i) {
        const double ari = a(r, i);
        if (ari == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) {
          const double arj = a(r, j);
          if (arj != 0.0) k(i, j) += rr * ari * arj;
        }
      }
    }
    return DenseLdlt::factorize(k);
  };

  auto kkt = build_kkt(rho);
  if (!kkt) {
    res.status = math::QpStatus::kSingularKkt;
    return res;
  }

  // The warm start in the scaled problem: x' = x / D, y' = c y / E.
  std::vector<double> x(n, 0.0), y(m, 0.0);
  if (warm.x.size() == n)
    for (std::size_t j = 0; j < n; ++j) x[j] = warm.x[j] * d_inv[j];
  if (warm.y.size() == m)
    for (std::size_t i = 0; i < m; ++i) y[i] = scaling.c * warm.y[i] * e_inv[i];
  std::vector<double> z = a.apply(x);
  for (std::size_t i = 0; i < m; ++i) z[i] = std::clamp(z[i], prob.l[i], prob.u[i]);

  int iter = 0;
  for (iter = 1; iter <= settings.max_iterations; ++iter) {
    std::vector<double> rz_y(m);
    for (std::size_t i = 0; i < m; ++i) rz_y[i] = rho_row(rho, i) * z[i] - y[i];
    const std::vector<double> azy = at.apply(rz_y);
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = sigma * x[i] - prob.q[i] + azy[i];
    std::vector<double> x_next = kkt->solve(rhs);

    const std::vector<double> ax_next = a.apply(x_next);
    std::vector<double> z_tilde(m);
    for (std::size_t i = 0; i < m; ++i)
      z_tilde[i] = alpha * ax_next[i] + (1.0 - alpha) * z[i];
    std::vector<double> z_next(m);
    for (std::size_t i = 0; i < m; ++i)
      z_next[i] = std::clamp(z_tilde[i] + y[i] / rho_row(rho, i), prob.l[i], prob.u[i]);
    for (std::size_t i = 0; i < m; ++i)
      y[i] += rho_row(rho, i) * (z_tilde[i] - z_next[i]);
    x = std::move(x_next);
    z = std::move(z_next);

    if (iter % settings.check_interval != 0 && iter != settings.max_iterations) continue;

    // Residuals of the scaled problem, and of the caller's through D^-1,
    // E^-1 and 1/c: termination tests the caller's, rho the scaled ones.
    const std::vector<double> ax = a.apply(x);
    const std::vector<double> r_prim_vec = math::sub(ax, z);
    const std::vector<double> px = p.apply(x);
    const std::vector<double> aty = at.apply(y);
    std::vector<double> r_dual_vec(n);
    for (std::size_t i = 0; i < n; ++i) r_dual_vec[i] = px[i] + prob.q[i] + aty[i];
    const double r_prim = weighted_norm(r_prim_vec, e_inv);
    const double r_dual = c_inv * weighted_norm(r_dual_vec, d_inv);
    const double eps_prim =
        settings.eps_abs +
        settings.eps_rel * std::max(weighted_norm(ax, e_inv), weighted_norm(z, e_inv));
    const double eps_dual =
        settings.eps_abs +
        settings.eps_rel * c_inv *
            std::max({weighted_norm(px, d_inv), weighted_norm(aty, d_inv),
                      weighted_norm(prob.q, d_inv)});
    res.primal_residual = r_prim;
    res.dual_residual = r_dual;
    if (r_prim <= eps_prim && r_dual <= eps_dual) {
      res.status = math::QpStatus::kSolved;
      break;
    }
    const double s_prim = math::norm_inf(r_prim_vec);
    const double s_dual = math::norm_inf(r_dual_vec);
    if (settings.adaptive_rho && s_dual > 0.0 && s_prim > 0.0) {
      const double prim_scale = std::max(math::norm_inf(ax), math::norm_inf(z));
      const double dual_scale =
          std::max({math::norm_inf(px), math::norm_inf(aty), math::norm_inf(prob.q)});
      const double ratio = std::sqrt((s_prim / std::max(prim_scale, 1e-10)) /
                                     (s_dual / std::max(dual_scale, 1e-10)));
      if (ratio > 5.0 || ratio < 0.2) {
        rho = std::clamp(rho * ratio, 1e-6, 1e6);
        res.rho = rho;
        kkt = build_kkt(rho);
        if (!kkt) {
          res.status = math::QpStatus::kSingularKkt;
          return res;
        }
      }
    }
  }

  if (res.status != math::QpStatus::kSolved) res.status = math::QpStatus::kMaxIterations;
  res.iterations = std::min(iter, settings.max_iterations);
  finish(x);
  res.y.resize(m);
  for (std::size_t i = 0; i < m; ++i) res.y[i] = e[i] * y[i] * c_inv;
  return res;
}

}  // namespace icoil::oracle
