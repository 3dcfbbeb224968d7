#pragma once

#include <vector>

#include "mathkit/sparse.hpp"

namespace icoil::math {

/// Quadratic program in OSQP standard form:
///   minimize   0.5 x^T P x + q^T x
///   subject to l <= A x <= u
/// P must be symmetric positive semidefinite and is stored with both
/// triangles. Equality constraints are expressed with l == u; one-sided
/// constraints with +/- kQpInf.
struct QpProblem {
  CsrMatrix p;             ///< n x n cost Hessian
  std::vector<double> q;   ///< n cost gradient
  CsrMatrix a;             ///< m x n constraint matrix
  std::vector<double> l;   ///< m lower bounds
  std::vector<double> u;   ///< m upper bounds

  std::size_t num_vars() const { return q.size(); }
  std::size_t num_constraints() const { return l.size(); }
  /// Shapes agree, both matrices are well-formed CSR, every P, A and q
  /// value is finite, and no bound is NaN or has l > u.
  bool valid() const;
};

inline constexpr double kQpInf = 1e20;

struct QpSettings {
  int max_iterations = 4000;
  double rho = 0.1;          ///< ADMM penalty
  double sigma = 1e-6;       ///< proximal regularization
  double alpha = 1.6;        ///< over-relaxation
  double eps_abs = 1e-4;
  double eps_rel = 1e-4;
  int check_interval = 25;   ///< residual check cadence
  bool adaptive_rho = true;
};

enum class QpStatus { kSolved, kMaxIterations, kSingularKkt, kInvalidProblem };

struct QpResult {
  QpStatus status = QpStatus::kInvalidProblem;
  std::vector<double> x;       ///< primal solution
  std::vector<double> y;       ///< dual solution (Lagrange multipliers)
  double rho = 0.0;            ///< ADMM penalty of the last iteration
  double objective = 0.0;
  int iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;

  bool ok() const { return status == QpStatus::kSolved; }
};

/// Where an ADMM solve starts: primal `x` (size n), dual `y` (size m) and
/// penalty `rho`. An `x` or `y` of another size starts at 0, and a `rho`
/// that is not finite and positive starts at `QpSettings::rho`. A previous
/// result's `{x, y, rho}` restarts a solve where it stopped.
struct QpWarmStart {
  std::vector<double> x;
  std::vector<double> y;
  double rho = 0.0;
};

/// Sparse ADMM solver implementing the OSQP algorithm
/// (Stellato et al., "OSQP: an operator splitting solver for quadratic
/// programs"). Each solve factors K = P + sigma*I + A^T R A with the sparse
/// LDLT of mathkit/ldlt.hpp: the symbolic step runs once per problem and
/// every adaptive-rho change only refactors numerically. The variable order
/// of the problem is the elimination order. The ADMM loop allocates
/// nothing.
///
/// Adaptive rho follows OSQP: at each residual check the ratio of the
/// primal and dual residuals, each divided by its own scale, moves rho
/// when it leaves [1/5, 5].
class QpSolver {
 public:
  explicit QpSolver(QpSettings settings = {}) : settings_(settings) {}

  QpResult solve(const QpProblem& problem, const QpWarmStart& warm = {}) const;

  const QpSettings& settings() const { return settings_; }

 private:
  QpSettings settings_;
};

}  // namespace icoil::math
