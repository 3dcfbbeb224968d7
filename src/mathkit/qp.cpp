#include "mathkit/qp.hpp"

#include <algorithm>
#include <cmath>

#include "mathkit/ldlt.hpp"

namespace icoil::math {

namespace {

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

}  // namespace

bool QpProblem::valid() const {
  const std::size_t n = q.size();
  const std::size_t m = l.size();
  if (!p.well_formed() || static_cast<std::size_t>(p.rows) != n ||
      static_cast<std::size_t>(p.cols) != n)
    return false;
  if (!a.well_formed() || static_cast<std::size_t>(a.rows) != m ||
      (m > 0 && static_cast<std::size_t>(a.cols) != n))
    return false;
  if (u.size() != m) return false;
  if (!all_finite(p.val) || !all_finite(a.val) || !all_finite(q)) return false;
  for (std::size_t i = 0; i < m; ++i)
    if (std::isnan(l[i]) || std::isnan(u[i]) || l[i] > u[i]) return false;
  return true;
}

namespace {

/// K = P + sigma*I + A^T diag(rho) A on the upper-triangular pattern the
/// LDLT factors. `analyze` builds the pattern column by column together
/// with a slot map that lists, in the order `factor` assembles K, where
/// each P entry, sigma and A-row product lands, so a rho change
/// re-assembles K and refactors without searching or allocating.
///
/// Every K entry is summed in the order the dense formulation sums it
/// (P, then sigma on the diagonal, then the A rows in increasing order),
/// so K matches the dense K bit for bit.
class KktSystem {
 public:
  bool analyze(const QpProblem& prob, const CsrMatrix& at) {
    prob_ = &prob;
    at_ = &at;
    const int n = prob.p.rows;
    const CsrMatrix& p = prob.p;
    const CsrMatrix& a = prob.a;
    std::vector<int> col_ptr(n + 1, 0);
    std::vector<int> row_idx;
    std::vector<int> seen(n, -1);  // column that last listed the row
    std::vector<int> slot(n, 0);   // row -> slot within the current column
    diag_slot_.assign(n, 0);
    p_slot_.clear();
    a_slot_.clear();
    for (int j = 0; j < n; ++j) {
      const std::size_t begin = row_idx.size();
      auto add = [&](int i) {
        if (seen[i] == j) return;
        seen[i] = j;
        row_idx.push_back(i);
      };
      add(j);
      for (int k = p.row_ptr[j]; k < p.row_ptr[j + 1] && p.col[k] <= j; ++k) add(p.col[k]);
      for (int t = at.row_ptr[j]; t < at.row_ptr[j + 1]; ++t) {
        const int r = at.col[t];
        for (int e = a.row_ptr[r]; e < a.row_ptr[r + 1] && a.col[e] <= j; ++e)
          add(a.col[e]);
      }
      std::sort(row_idx.begin() + static_cast<std::ptrdiff_t>(begin), row_idx.end());
      for (std::size_t s = begin; s < row_idx.size(); ++s)
        slot[row_idx[s]] = static_cast<int>(s);
      col_ptr[j + 1] = static_cast<int>(row_idx.size());

      for (int k = p.row_ptr[j]; k < p.row_ptr[j + 1] && p.col[k] <= j; ++k)
        p_slot_.push_back(slot[p.col[k]]);
      diag_slot_[j] = slot[j];
      for (int t = at.row_ptr[j]; t < at.row_ptr[j + 1]; ++t) {
        const int r = at.col[t];
        for (int e = a.row_ptr[r]; e < a.row_ptr[r + 1] && a.col[e] <= j; ++e)
          a_slot_.push_back(slot[a.col[e]]);
      }
    }
    kx_.assign(row_idx.size(), 0.0);
    return ldlt_.analyze(n, std::move(col_ptr), std::move(row_idx));
  }

  /// Assembles K for `sigma` and the per-row `rho` and factors it; false
  /// when a pivot collapses.
  bool factor(double sigma, const std::vector<double>& rho) {
    const CsrMatrix& p = prob_->p;
    const CsrMatrix& a = prob_->a;
    const CsrMatrix& at = *at_;
    std::fill(kx_.begin(), kx_.end(), 0.0);
    const int* ps = p_slot_.data();
    const int* as = a_slot_.data();
    for (int j = 0; j < p.rows; ++j) {
      for (int k = p.row_ptr[j]; k < p.row_ptr[j + 1] && p.col[k] <= j; ++k)
        kx_[*ps++] += p.val[k];
      kx_[diag_slot_[j]] += sigma;
      for (int t = at.row_ptr[j]; t < at.row_ptr[j + 1]; ++t) {
        const int r = at.col[t];
        const double w = rho[r] * at.val[t];  // rho_r * A(r, j), j the larger index
        for (int e = a.row_ptr[r]; e < a.row_ptr[r + 1] && a.col[e] <= j; ++e)
          kx_[*as++] += w * a.val[e];
      }
    }
    return ldlt_.factor(kx_.data());
  }

  void solve(double* x) const { ldlt_.solve(x); }

 private:
  const QpProblem* prob_ = nullptr;
  const CsrMatrix* at_ = nullptr;
  std::vector<int> p_slot_, diag_slot_, a_slot_;
  std::vector<double> kx_;
  SparseLdlt ldlt_;
};

double objective(const QpProblem& prob, const std::vector<double>& x) {
  return 0.5 * dot(x, prob.p.apply(x)) + dot(prob.q, x);
}

}  // namespace

QpResult QpSolver::solve(const QpProblem& prob, const std::vector<double>* x0,
                         const std::vector<double>* y0) const {
  QpResult res;
  if (!prob.valid()) {
    res.status = QpStatus::kInvalidProblem;
    return res;
  }
  const std::size_t n = prob.num_vars();
  const std::size_t m = prob.num_constraints();

  double rho = settings_.rho;
  const double sigma = settings_.sigma;
  const double alpha = settings_.alpha;

  // Without constraint rows A may be any 0 x k matrix, and K = P + sigma I.
  const CsrMatrix at =
      m > 0 ? prob.a.transpose()
            : CsrMatrix{static_cast<int>(n), 0, std::vector<int>(n + 1, 0), {}, {}};
  // Per-row penalty: equality rows (l == u) converge far faster with a
  // much stiffer rho (the OSQP rule: rho_eq = 1e3 * rho).
  std::vector<double> rho_vec(m);
  auto set_rho = [&](double rho_val) {
    for (std::size_t i = 0; i < m; ++i)
      rho_vec[i] = prob.l[i] == prob.u[i] ? 1e3 * rho_val : rho_val;
  };
  set_rho(rho);

  KktSystem kkt;
  if (!kkt.analyze(prob, at) || !kkt.factor(sigma, rho_vec)) {
    res.status = QpStatus::kSingularKkt;
    return res;
  }

  // Unconstrained problem: a single regularized solve suffices.
  if (m == 0) {
    res.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) res.x[i] = -prob.q[i];
    kkt.solve(res.x.data());
    res.status = QpStatus::kSolved;
    res.objective = objective(prob, res.x);
    return res;
  }

  // Every buffer of the loop is allocated here, once.
  std::vector<double> x = x0 && x0->size() == n ? *x0 : std::vector<double>(n, 0.0);
  std::vector<double> y = y0 && y0->size() == m ? *y0 : std::vector<double>(m, 0.0);
  std::vector<double> x_next(n), px(n), aty(n), r_dual_vec(n);
  std::vector<double> z(m), z_next(m), z_tilde(m), ax(m), rz_y(m);  // rz_y: also A x - z
  prob.a.apply(x.data(), ax.data());
  for (std::size_t i = 0; i < m; ++i) z[i] = std::clamp(ax[i], prob.l[i], prob.u[i]);

  int iter = 0;
  for (iter = 1; iter <= settings_.max_iterations; ++iter) {
    // x-update:
    //   (P + sigma I + A^T R A) x+ = sigma x - q + A^T (R z - y)
    for (std::size_t i = 0; i < m; ++i) rz_y[i] = rho_vec[i] * z[i] - y[i];
    at.apply(rz_y.data(), x_next.data());
    for (std::size_t i = 0; i < n; ++i)
      x_next[i] = sigma * x[i] - prob.q[i] + x_next[i];
    kkt.solve(x_next.data());

    // z-update with over-relaxation; `ax` holds A x+ for the residuals.
    prob.a.apply(x_next.data(), ax.data());
    for (std::size_t i = 0; i < m; ++i)
      z_tilde[i] = alpha * ax[i] + (1.0 - alpha) * z[i];
    for (std::size_t i = 0; i < m; ++i)
      z_next[i] = std::clamp(z_tilde[i] + y[i] / rho_vec[i], prob.l[i], prob.u[i]);

    // y-update.
    for (std::size_t i = 0; i < m; ++i) y[i] += rho_vec[i] * (z_tilde[i] - z_next[i]);

    x.swap(x_next);
    z.swap(z_next);

    if (iter % settings_.check_interval != 0 && iter != settings_.max_iterations)
      continue;

    // Residuals (OSQP section 3.4).
    for (std::size_t i = 0; i < m; ++i) rz_y[i] = ax[i] - z[i];
    const double r_prim = norm_inf(rz_y);
    prob.p.apply(x.data(), px.data());
    at.apply(y.data(), aty.data());
    for (std::size_t i = 0; i < n; ++i)
      r_dual_vec[i] = px[i] + prob.q[i] + aty[i];
    const double r_dual = norm_inf(r_dual_vec);

    const double eps_prim =
        settings_.eps_abs +
        settings_.eps_rel * std::max(norm_inf(ax), norm_inf(z));
    const double eps_dual =
        settings_.eps_abs +
        settings_.eps_rel *
            std::max({norm_inf(px), norm_inf(aty), norm_inf(prob.q)});

    res.primal_residual = r_prim;
    res.dual_residual = r_dual;
    if (r_prim <= eps_prim && r_dual <= eps_dual) {
      res.status = QpStatus::kSolved;
      break;
    }

    // Adaptive rho (geometric update toward residual balance).
    if (settings_.adaptive_rho && r_dual > 0.0 && r_prim > 0.0) {
      const double ratio = std::sqrt(r_prim / r_dual);
      if (ratio > 5.0 || ratio < 0.2) {
        rho = std::clamp(rho * ratio, 1e-6, 1e6);
        set_rho(rho);
        if (!kkt.factor(sigma, rho_vec)) {
          res.status = QpStatus::kSingularKkt;
          return res;
        }
      }
    }
  }

  if (res.status != QpStatus::kSolved) res.status = QpStatus::kMaxIterations;
  res.x = std::move(x);
  res.y = std::move(y);
  res.iterations = std::min(iter, settings_.max_iterations);
  res.objective = objective(prob, res.x);
  return res;
}

}  // namespace icoil::math
