#include "mathkit/qp.hpp"

#include <algorithm>
#include <cmath>

#include "mathkit/ldlt.hpp"

namespace icoil::math {

namespace {

constexpr double kRhoMin = 1e-6;
constexpr double kRhoMax = 1e6;
// Residual scales below this count as this, so a zero scale cannot divide.
constexpr double kScaleFloor = 1e-10;
// OSQP's limits on an equilibration norm: below kMinScaling it counts as 1
// (an empty or tiny column is left alone), above kMaxScaling as kMaxScaling.
constexpr double kMinScaling = 1e-4;
constexpr double kMaxScaling = 1e4;

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

double limit_scaling(double norm) {
  return norm < kMinScaling ? 1.0 : std::min(norm, kMaxScaling);
}

// The value half of QpProblem::valid(), for a problem of valid shape.
bool values_valid(const QpProblem& prob) {
  if (!all_finite(prob.p.val) || !all_finite(prob.a.val) || !all_finite(prob.q))
    return false;
  for (std::size_t i = 0; i < prob.l.size(); ++i)
    if (std::isnan(prob.l[i]) || std::isnan(prob.u[i]) || prob.l[i] > prob.u[i])
      return false;
  return true;
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
  return values_valid(*this);
}

void ruiz_equilibrate(QpProblem& prob, QpScaling& s) {
  const std::size_t n = prob.num_vars();
  const std::size_t m = prob.num_constraints();
  CsrMatrix& p = prob.p;
  CsrMatrix& a = prob.a;
  s.d.assign(n, 1.0);
  s.e.assign(m, 1.0);
  s.c = 1.0;
  // d_inv and e_inv hold each pass's column and row factors until the end.
  std::vector<double>& dt = s.d_inv;
  std::vector<double>& et = s.e_inv;
  dt.resize(n);
  et.resize(m);
  for (int pass = 0; pass < kRuizPasses; ++pass) {
    // Column norms of the KKT matrix [P A^T; A 0]: P and A columns for the
    // variables, A rows for the constraints. P holds both triangles, so its
    // row norms are its column norms.
    for (int r = 0; r < p.rows; ++r) {
      double norm = 0.0;
      for (int k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k)
        norm = std::max(norm, std::abs(p.val[k]));
      dt[r] = norm;
    }
    for (int r = 0; r < a.rows; ++r) {
      double norm = 0.0;
      for (int k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        const double v = std::abs(a.val[k]);
        dt[a.col[k]] = std::max(dt[a.col[k]], v);
        norm = std::max(norm, v);
      }
      et[r] = norm;
    }
    for (double& v : dt) v = 1.0 / std::sqrt(limit_scaling(v));
    for (double& v : et) v = 1.0 / std::sqrt(limit_scaling(v));

    // P <- D P D, with the column norms of the result for the cost scaling.
    double col_sum = 0.0;
    for (int r = 0; r < p.rows; ++r) {
      const double dr = dt[r];
      double norm = 0.0;
      for (int k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
        const double v = dr * p.val[k] * dt[p.col[k]];
        p.val[k] = v;
        norm = std::max(norm, std::abs(v));
      }
      col_sum += norm;
    }
    // A <- E A D, q <- D q.
    for (int r = 0; r < a.rows; ++r) {
      const double er = et[r];
      for (int k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k)
        a.val[k] = er * a.val[k] * dt[a.col[k]];
    }
    double q_norm = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      prob.q[j] *= dt[j];
      s.d[j] *= dt[j];
      q_norm = std::max(q_norm, std::abs(prob.q[j]));
    }
    for (std::size_t i = 0; i < m; ++i) s.e[i] *= et[i];

    // Cost scaling: the mean column norm of P against the norm of q.
    const double mean_col = n > 0 ? col_sum / static_cast<double>(n) : 0.0;
    const double c = 1.0 / limit_scaling(std::max(mean_col, limit_scaling(q_norm)));
    for (double& v : p.val) v *= c;
    for (double& v : prob.q) v *= c;
    s.c *= c;
  }
  for (std::size_t i = 0; i < m; ++i) {
    prob.l[i] *= s.e[i];
    prob.u[i] *= s.e[i];
  }
  for (std::size_t j = 0; j < n; ++j) dt[j] = 1.0 / s.d[j];
  for (std::size_t i = 0; i < m; ++i) et[i] = 1.0 / s.e[i];
}

namespace {

/// K = P + sigma*I + A^T diag(rho) A on the upper-triangular pattern the
/// LDLT factors. `analyze` builds the pattern column by column together
/// with a slot map that lists, in the order `factor` assembles K, where
/// each P entry, sigma and A-row product lands, so a rho change
/// re-assembles K and refactors without searching or allocating. The
/// analysis depends only on the patterns of P, A and A^T; `factor` takes
/// the matrices of the same patterns again.
///
/// Every K entry is summed in the order the dense formulation sums it
/// (P, then sigma on the diagonal, then the A rows in increasing order),
/// so K matches the dense K bit for bit.
class KktSystem {
 public:
  bool analyze(const CsrMatrix& p, const CsrMatrix& a, const CsrMatrix& at) {
    const int n = p.rows;
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
  bool factor(const CsrMatrix& p, const CsrMatrix& a, const CsrMatrix& at, double sigma,
              const std::vector<double>& rho) {
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
  std::vector<int> p_slot_, diag_slot_, a_slot_;
  std::vector<double> kx_;
  SparseLdlt ldlt_;
};

// ‖v‖∞ and ‖w∘v‖∞ in one pass. A NaN entry makes both NaN, as in norm_inf.
struct InfNorms {
  double scaled = 0.0;    // of v, a vector of the scaled problem
  double unscaled = 0.0;  // of w∘v, the caller's problem
};

InfNorms inf_norms(const std::vector<double>& v, const std::vector<double>& w) {
  InfNorms out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i])) return {v[i], v[i]};
    out.scaled = std::max(out.scaled, std::abs(v[i]));
    out.unscaled = std::max(out.unscaled, std::abs(w[i] * v[i]));
  }
  return out;
}

// Same shape, pattern and value count: a matrix that passes is as
// well-formed as `y`, and its values fit `y`'s buffer.
bool same_pattern(const CsrMatrix& x, const CsrMatrix& y) {
  return x.rows == y.rows && x.cols == y.cols && x.row_ptr == y.row_ptr && x.col == y.col &&
         x.val.size() == y.val.size();
}

void copy_values(const std::vector<double>& from, std::vector<double>& to) {
  std::copy(from.begin(), from.end(), to.begin());
}

}  // namespace

struct QpSolver::Workspace {
  // The caller's problem, scaled; its P and A patterns key the set-up below.
  QpProblem prob;
  QpScaling scaling;
  // A^T of the scaled A (n x m), and the A entry each of its entries copies.
  CsrMatrix at;
  std::vector<int> at_src;
  KktSystem kkt;
  bool analyzed = false;
  // ADMM iterates and buffers, all of the scaled problem.
  std::vector<double> rho_vec;
  std::vector<double> x, x_next, px, aty, r_dual_vec;
  std::vector<double> y, z, z_next, z_tilde, ax, rz_y;  // rz_y: also A x - z

  /// True when `caller` has the shape and patterns of the problem the KKT
  /// analysis was built for; it is then as well-formed as that one was.
  bool matches(const QpProblem& caller) const {
    return analyzed && caller.q.size() == prob.q.size() &&
           caller.l.size() == prob.l.size() && caller.u.size() == prob.u.size() &&
           same_pattern(caller.p, prob.p) && same_pattern(caller.a, prob.a);
  }

  /// Copies `caller` (valid) in, scales it and, unless `reuse` (from
  /// `matches`), rebuilds the KKT analysis; false when the analysis fails.
  bool load(const QpProblem& caller, bool reuse) {
    if (reuse) {
      copy_values(caller.p.val, prob.p.val);
      copy_values(caller.a.val, prob.a.val);
      copy_values(caller.q, prob.q);
      copy_values(caller.l, prob.l);
      copy_values(caller.u, prob.u);
    } else {
      analyzed = false;
      prob = caller;
    }
    ruiz_equilibrate(prob, scaling);
    if (!reuse) {
      build_transpose();
      if (!kkt.analyze(prob.p, prob.a, at)) return false;
      analyzed = true;
    }
    for (std::size_t t = 0; t < at_src.size(); ++t)
      at.val[t] = prob.a.val[static_cast<std::size_t>(at_src[t])];
    return true;
  }

  /// A^T and `at_src`. Without constraint rows A may be any 0 x k matrix,
  /// and A^T is n x 0.
  void build_transpose() {
    if (prob.a.rows > 0) {
      at = prob.a.transpose(&at_src);
      return;
    }
    const int n = prob.p.rows;
    at = CsrMatrix{n, 0, std::vector<int>(static_cast<std::size_t>(n) + 1, 0), {}, {}};
    at_src.clear();
  }
};

QpSolver::QpSolver(QpSettings settings)
    : settings_(settings), ws_(std::make_unique<Workspace>()) {}
QpSolver::~QpSolver() = default;

QpResult QpSolver::solve(const QpProblem& caller, const QpWarmStart& warm) {
  QpResult res;
  Workspace& w = *ws_;
  const bool reuse = w.matches(caller);
  if (!(reuse ? values_valid(caller) : caller.valid())) {
    res.status = QpStatus::kInvalidProblem;
    return res;
  }
  const std::size_t n = caller.num_vars();
  const std::size_t m = caller.num_constraints();

  double rho = std::isfinite(warm.rho) && warm.rho > 0.0
                   ? std::clamp(warm.rho, kRhoMin, kRhoMax)
                   : settings_.rho;
  res.rho = rho;
  const double sigma = settings_.sigma;
  const double alpha = settings_.alpha;

  const bool loaded = w.load(caller, reuse);
  const QpProblem& prob = w.prob;
  const CsrMatrix& at = w.at;
  const std::vector<double>& d = w.scaling.d;
  const std::vector<double>& d_inv = w.scaling.d_inv;
  const std::vector<double>& e = w.scaling.e;
  const std::vector<double>& e_inv = w.scaling.e_inv;
  const double c_inv = 1.0 / w.scaling.c;

  // Per-row penalty: equality rows (l == u) converge far faster with a
  // much stiffer rho (the OSQP rule: rho_eq = 1e3 * rho).
  std::vector<double>& rho_vec = w.rho_vec;
  rho_vec.resize(m);
  auto set_rho = [&](double rho_val) {
    for (std::size_t i = 0; i < m; ++i)
      rho_vec[i] = prob.l[i] == prob.u[i] ? 1e3 * rho_val : rho_val;
  };
  set_rho(rho);

  if (!loaded || !w.kkt.factor(prob.p, prob.a, at, sigma, rho_vec)) {
    res.status = QpStatus::kSingularKkt;
    return res;
  }

  std::vector<double>& px = w.px;
  px.resize(n);
  auto finish = [&](const std::vector<double>& x_scaled) {
    res.x.resize(n);
    for (std::size_t j = 0; j < n; ++j) res.x[j] = d[j] * x_scaled[j];
    caller.p.apply(res.x.data(), px.data());
    res.objective = 0.5 * dot(res.x, px) + dot(caller.q, res.x);
  };

  // Unconstrained problem: a single regularized solve suffices.
  std::vector<double>& x = w.x;
  x.resize(n);
  if (m == 0) {
    for (std::size_t j = 0; j < n; ++j) x[j] = -prob.q[j];
    w.kkt.solve(x.data());
    res.status = QpStatus::kSolved;
    finish(x);
    return res;
  }

  // The warm start in the scaled problem: x' = x / D, y' = c y / E.
  std::vector<double>& y = w.y;
  y.resize(m);
  if (warm.x.size() == n) {
    for (std::size_t j = 0; j < n; ++j) x[j] = warm.x[j] * d_inv[j];
  } else {
    std::fill(x.begin(), x.end(), 0.0);
  }
  if (warm.y.size() == m) {
    for (std::size_t i = 0; i < m; ++i) y[i] = w.scaling.c * warm.y[i] * e_inv[i];
  } else {
    std::fill(y.begin(), y.end(), 0.0);
  }
  for (auto* v : {&w.x_next, &w.aty, &w.r_dual_vec}) v->resize(n);
  for (auto* v : {&w.z, &w.z_next, &w.z_tilde, &w.ax, &w.rz_y}) v->resize(m);
  std::vector<double>& x_next = w.x_next;
  std::vector<double>& aty = w.aty;
  std::vector<double>& r_dual_vec = w.r_dual_vec;
  std::vector<double>& z = w.z;
  std::vector<double>& z_next = w.z_next;
  std::vector<double>& z_tilde = w.z_tilde;
  std::vector<double>& ax = w.ax;
  std::vector<double>& rz_y = w.rz_y;
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
    w.kkt.solve(x_next.data());

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

    // Residuals (OSQP section 3.4), each in the scaled problem and, through
    // D^-1, E^-1 and 1/c, in the caller's.
    for (std::size_t i = 0; i < m; ++i) rz_y[i] = ax[i] - z[i];
    prob.p.apply(x.data(), px.data());
    at.apply(y.data(), aty.data());
    for (std::size_t i = 0; i < n; ++i)
      r_dual_vec[i] = px[i] + prob.q[i] + aty[i];
    const InfNorms prim = inf_norms(rz_y, e_inv);
    const InfNorms ax_n = inf_norms(ax, e_inv), z_n = inf_norms(z, e_inv);
    const InfNorms dual = inf_norms(r_dual_vec, d_inv);
    const InfNorms px_n = inf_norms(px, d_inv), aty_n = inf_norms(aty, d_inv),
                   q_n = inf_norms(prob.q, d_inv);

    const double r_prim = prim.unscaled;
    const double r_dual = c_inv * dual.unscaled;
    const double eps_prim =
        settings_.eps_abs + settings_.eps_rel * std::max(ax_n.unscaled, z_n.unscaled);
    const double eps_dual =
        settings_.eps_abs +
        settings_.eps_rel * c_inv * std::max({px_n.unscaled, aty_n.unscaled, q_n.unscaled});

    res.primal_residual = r_prim;
    res.dual_residual = r_dual;
    if (r_prim <= eps_prim && r_dual <= eps_dual) {
      res.status = QpStatus::kSolved;
      break;
    }

    // Adaptive rho: a geometric step toward balancing the scaled residuals,
    // each relative to its own scale, as OSQP updates rho.
    if (settings_.adaptive_rho && dual.scaled > 0.0 && prim.scaled > 0.0) {
      const double prim_scale = std::max(ax_n.scaled, z_n.scaled);
      const double dual_scale = std::max({px_n.scaled, aty_n.scaled, q_n.scaled});
      const double ratio = std::sqrt((prim.scaled / std::max(prim_scale, kScaleFloor)) /
                                     (dual.scaled / std::max(dual_scale, kScaleFloor)));
      if (ratio > 5.0 || ratio < 0.2) {
        rho = std::clamp(rho * ratio, kRhoMin, kRhoMax);
        res.rho = rho;
        set_rho(rho);
        if (!w.kkt.factor(prob.p, prob.a, at, sigma, rho_vec)) {
          res.status = QpStatus::kSingularKkt;
          return res;
        }
      }
    }
  }

  if (res.status != QpStatus::kSolved) res.status = QpStatus::kMaxIterations;
  res.iterations = std::min(iter, settings_.max_iterations);
  // Back to the caller's problem: x = D x', y = E y' / c.
  finish(x);
  res.y.resize(m);
  for (std::size_t i = 0; i < m; ++i) res.y[i] = e[i] * y[i] * c_inv;
  return res;
}

}  // namespace icoil::math
