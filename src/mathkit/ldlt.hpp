#pragma once

#include <cstddef>
#include <vector>

namespace icoil::math {

/// Sparse LDL^T factorization of a symmetric quasi-definite matrix, after
/// QDLDL (the linear-system kernel of OSQP, Stellato et al.). It is the
/// kernel of the ADMM QP solver, whose KKT matrix P + sigma*I + A^T R A is
/// positive definite.
///
/// No fill-reducing permutation is applied: the variable order the caller
/// chooses is the elimination order, so callers with structure (the stage
/// layout of `co::TrajOpt`) pick an order with little fill.
///
/// `analyze` does the symbolic work once per sparsity pattern: it stores
/// the pattern, computes the elimination tree and the column counts of L,
/// and sizes every buffer. `factor` can then be repeated for new values on
/// the same pattern, and neither `factor` nor `solve` allocates.
class SparseLdlt {
 public:
  static constexpr double kPivotTolerance = 1e-12;

  /// Analyze the n x n pattern given as the upper triangle in compressed
  /// sparse column form: column j lists rows `row_idx[col_ptr[j] ..
  /// col_ptr[j + 1])`, each <= j. Returns false for a malformed pattern.
  bool analyze(int n, std::vector<int> col_ptr, std::vector<int> row_idx);

  /// Numeric factorization of `values`, laid out like `row_idx`. Requires
  /// a successful `analyze`. Returns false when a pivot's magnitude falls
  /// below kPivotTolerance (numerically singular).
  bool factor(const double* values);

  /// x <- M^{-1} x, in place. Requires a successful `factor`.
  void solve(double* x) const;

  /// Strictly lower nonzeros of L.
  std::size_t nnz_l() const { return li_.size(); }

 private:
  int n_ = 0;
  std::vector<int> col_ptr_, row_idx_;  // upper-triangular CSC pattern
  std::vector<int> etree_;              // parent in the elimination tree, -1 at roots
  std::vector<int> lp_{0}, li_;         // L in CSC, strictly lower
  std::vector<double> lx_, d_, dinv_;
  // Workspace of `factor`.
  std::vector<int> next_in_col_, y_idx_, elim_buf_;
  std::vector<char> y_used_;
  std::vector<double> y_vals_;
};

}  // namespace icoil::math
