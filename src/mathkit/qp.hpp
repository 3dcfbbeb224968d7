#pragma once

#include <memory>
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
  double rho = 0.0;            ///< last ADMM penalty, of the scaled problem
  double objective = 0.0;
  int iterations = 0;
  double primal_residual = 0.0;  ///< of the caller's problem
  double dual_residual = 0.0;    ///< of the caller's problem

  bool ok() const { return status == QpStatus::kSolved; }
};

/// Where an ADMM solve starts: primal `x` (size n), dual `y` (size m) and
/// penalty `rho`. An `x` or `y` of another size starts at 0, and a `rho`
/// that is not finite and positive starts at `QpSettings::rho`. A previous
/// result's `{x, y, rho}` restarts a solve where it stopped. `x` and `y`
/// belong to the caller's problem; `rho` is a penalty of the scaled
/// problem, as `QpResult::rho` is.
struct QpWarmStart {
  std::vector<double> x;
  std::vector<double> y;
  double rho = 0.0;
};

/// The diagonal equilibration of a QP: the scaled problem is
///   P' = c D P D,  q' = c D q,  A' = E A D,  l' = E l,  u' = E u,
/// whose solution x', y' maps back as x = D x', y = E y' / c.
struct QpScaling {
  std::vector<double> d, d_inv;  ///< n variable scales and their inverses
  std::vector<double> e, e_inv;  ///< m constraint scales and their inverses
  double c = 1.0;                ///< cost scale
};

/// Ruiz passes of `ruiz_equilibrate`. On perfbench's icoil_families
/// workload one pass cut the ADMM iterations of a frame from 77 to 30;
/// OSQP's default of 10 passes left them at 30 and made each solve dearer.
inline constexpr int kRuizPasses = 1;

/// Scales `problem` in place by OSQP's modified Ruiz equilibration (Ruiz,
/// "A scaling algorithm to equilibrate both rows and columns norms in
/// matrices", 2001; Stellato et al., section 5.1) and writes the scaling
/// to `scaling`. Each of kRuizPasses passes divides every variable by the
/// square root of the infinity norm of its column of [P; A] and every
/// constraint row by that of its row of A (norms below 1e-4 count as 1,
/// above 1e4 as 1e4), then scales the cost by the inverse of the larger of
/// the mean column norm of P and the norm of q (limited the same way).
/// Allocation-free once `scaling` holds vectors of the problem's sizes.
/// `problem` must be valid().
void ruiz_equilibrate(QpProblem& problem, QpScaling& scaling);

/// Sparse ADMM solver implementing the OSQP algorithm
/// (Stellato et al., "OSQP: an operator splitting solver for quadratic
/// programs", Math. Prog. Comp. 2020).
///
/// Every solve runs on the Ruiz-equilibrated problem (`ruiz_equilibrate`;
/// there is no unscaled path). Warm starts map in as x' = x / D and
/// y' = c y / E, results map out as x = D x' and y = E y' / c, and the
/// objective is evaluated on the caller's problem. Termination tests the
/// residuals of the caller's problem against eps_abs + eps_rel times their
/// scales (OSQP's default), while rho, the per-row penalties and sigma act
/// in the scaled problem: `QpResult::rho` and `QpWarmStart::rho` are
/// scaled-problem penalties.
///
/// Each solve factors K = P' + sigma*I + A'^T R A' with the sparse LDLT of
/// mathkit/ldlt.hpp, and every adaptive-rho change only refactors
/// numerically. The variable order of the problem is the elimination
/// order. Adaptive rho follows OSQP: at each residual check the ratio of
/// the scaled primal and dual residuals, each divided by its own scale,
/// moves rho when it leaves [1/5, 5].
///
/// The solver keeps a workspace across solves: the scaled copy of the
/// problem, A'^T with its entry map, the KKT slot map, the LDLT's symbolic
/// analysis and every ADMM buffer. A solve whose P and A have the sparsity
/// pattern of the previous solve reuses the analysis: it checks, copies and
/// rescales the values and refactors. Another pattern rebuilds it. The
/// result does not depend on what the workspace held before: a reused
/// solver returns the same bits as a fresh one. The workspace lives as long
/// as the solver, which is neither copied nor moved, so `solve` is not
/// const and a solver must not be shared between threads; give each thread
/// its own.
class QpSolver {
 public:
  explicit QpSolver(QpSettings settings = {});
  ~QpSolver();

  QpResult solve(const QpProblem& problem, const QpWarmStart& warm = {});

  const QpSettings& settings() const { return settings_; }

 private:
  struct Workspace;

  QpSettings settings_;
  std::unique_ptr<Workspace> ws_;
};

}  // namespace icoil::math
