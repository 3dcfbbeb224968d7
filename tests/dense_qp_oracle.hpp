#pragma once

// Dense reference implementation of the ADMM QP solver: the same OSQP
// iteration as math::QpSolver (rho rule, sigma, alpha, check cadence,
// tolerances, warm start) on dense P, A and A^T with a dense O(n^3) LDLT
// refactored on every rho change. It is the differential oracle of the
// sparse solver (qp_parity_test) and the baseline of its micro-benchmark.
// Header-only, so every tests/*.cpp can include it without being linked
// into an executable of its own.

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
/// (`QpProblem::valid`), so both reject the same inputs.
inline math::QpResult dense_qp_solve(const math::QpProblem& prob,
                                     const math::QpSettings& settings = {},
                                     const std::vector<double>* x0 = nullptr,
                                     const std::vector<double>* y0 = nullptr) {
  using math::Matrix;
  math::QpResult res;
  if (!prob.valid()) {
    res.status = math::QpStatus::kInvalidProblem;
    return res;
  }
  const std::size_t n = prob.num_vars();
  const std::size_t m = prob.num_constraints();
  const Matrix p = prob.p.to_dense();
  double rho = settings.rho;
  const double sigma = settings.sigma;
  const double alpha = settings.alpha;

  if (m == 0) {
    Matrix k = p;
    for (std::size_t i = 0; i < n; ++i) k(i, i) += sigma;
    const auto f = DenseLdlt::factorize(k);
    if (!f) {
      res.status = math::QpStatus::kSingularKkt;
      return res;
    }
    res.x = f->solve(math::scale(prob.q, -1.0));
    res.status = math::QpStatus::kSolved;
    res.objective = 0.5 * math::dot(res.x, p.apply(res.x)) + math::dot(prob.q, res.x);
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

  std::vector<double> x = x0 && x0->size() == n ? *x0 : std::vector<double>(n, 0.0);
  std::vector<double> y = y0 && y0->size() == m ? *y0 : std::vector<double>(m, 0.0);
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

    const std::vector<double> ax = a.apply(x);
    const double r_prim = math::norm_inf(math::sub(ax, z));
    const std::vector<double> px = p.apply(x);
    const std::vector<double> aty = at.apply(y);
    std::vector<double> r_dual_vec(n);
    for (std::size_t i = 0; i < n; ++i) r_dual_vec[i] = px[i] + prob.q[i] + aty[i];
    const double r_dual = math::norm_inf(r_dual_vec);
    const double eps_prim =
        settings.eps_abs + settings.eps_rel * std::max(math::norm_inf(ax), math::norm_inf(z));
    const double eps_dual =
        settings.eps_abs +
        settings.eps_rel * std::max({math::norm_inf(px), math::norm_inf(aty),
                                     math::norm_inf(prob.q)});
    res.primal_residual = r_prim;
    res.dual_residual = r_dual;
    if (r_prim <= eps_prim && r_dual <= eps_dual) {
      res.status = math::QpStatus::kSolved;
      break;
    }
    if (settings.adaptive_rho && r_dual > 0.0 && r_prim > 0.0) {
      const double ratio = std::sqrt(r_prim / r_dual);
      if (ratio > 5.0 || ratio < 0.2) {
        rho = std::clamp(rho * ratio, 1e-6, 1e6);
        kkt = build_kkt(rho);
        if (!kkt) {
          res.status = math::QpStatus::kSingularKkt;
          return res;
        }
      }
    }
  }

  if (res.status != math::QpStatus::kSolved) res.status = math::QpStatus::kMaxIterations;
  res.x = std::move(x);
  res.y = std::move(y);
  res.iterations = std::min(iter, settings.max_iterations);
  res.objective = 0.5 * math::dot(res.x, p.apply(res.x)) + math::dot(prob.q, res.x);
  return res;
}

}  // namespace icoil::oracle
