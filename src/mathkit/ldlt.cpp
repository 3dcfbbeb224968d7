#include "mathkit/ldlt.hpp"

#include <algorithm>
#include <cmath>

namespace icoil::math {

bool SparseLdlt::analyze(int n, std::vector<int> col_ptr, std::vector<int> row_idx) {
  n_ = 0;  // unusable until the analysis succeeds
  if (n < 0 || col_ptr.size() != static_cast<std::size_t>(n) + 1 || col_ptr[0] != 0 ||
      static_cast<std::size_t>(col_ptr[n]) != row_idx.size())
    return false;
  col_ptr_ = std::move(col_ptr);
  row_idx_ = std::move(row_idx);

  // Elimination tree and column counts of L: walk each above-diagonal
  // entry (i, j) up the tree from i until reaching a node already visited
  // for column j; every node on the way gains row j in its column of L.
  etree_.assign(n, -1);
  std::vector<int> lnz(n, 0);
  std::vector<int> visited(n, -1);
  for (int j = 0; j < n; ++j) {
    if (col_ptr_[j + 1] < col_ptr_[j]) return false;
    visited[j] = j;
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      int i = row_idx_[k];
      if (i < 0 || i > j) return false;
      while (visited[i] != j) {
        if (etree_[i] == -1) etree_[i] = j;
        ++lnz[i];
        visited[i] = j;
        i = etree_[i];
      }
    }
  }

  lp_.assign(n + 1, 0);
  for (int j = 0; j < n; ++j) lp_[j + 1] = lp_[j] + lnz[j];
  li_.assign(lp_[n], 0);
  lx_.assign(lp_[n], 0.0);
  d_.assign(n, 0.0);
  dinv_.assign(n, 0.0);
  next_in_col_.assign(n, 0);
  y_idx_.assign(n, 0);
  elim_buf_.assign(n, 0);
  y_used_.assign(n, 0);
  y_vals_.assign(n, 0.0);
  n_ = n;
  return true;
}

bool SparseLdlt::factor(const double* values) {
  // Up-looking factorization: row k of L solves L[0:k,0:k] D y = K[0:k,k],
  // over the nonzero pattern of y, which is the union of the elimination
  // tree paths from the nonzeros of column k (visited in topological order).
  std::copy(lp_.begin(), lp_.end() - 1, next_in_col_.begin());
  for (int k = 0; k < n_; ++k) {
    int nnz_y = 0;
    d_[k] = 0.0;
    for (int p = col_ptr_[k]; p < col_ptr_[k + 1]; ++p) {
      const int i = row_idx_[p];
      if (i == k) {
        d_[k] = values[p];
        continue;
      }
      y_vals_[i] = values[p];
      if (y_used_[i]) continue;
      int depth = 0;
      for (int node = i; node != -1 && node < k && !y_used_[node]; node = etree_[node]) {
        y_used_[node] = 1;
        elim_buf_[depth++] = node;
      }
      while (depth > 0) y_idx_[nnz_y++] = elim_buf_[--depth];
    }
    for (int t = nnz_y - 1; t >= 0; --t) {
      const int c = y_idx_[t];
      const double yc = y_vals_[c];
      const int slot = next_in_col_[c]++;
      for (int p = lp_[c]; p < slot; ++p) y_vals_[li_[p]] -= lx_[p] * yc;
      li_[slot] = k;
      lx_[slot] = yc * dinv_[c];
      d_[k] -= yc * lx_[slot];
      y_vals_[c] = 0.0;
      y_used_[c] = 0;
    }
    if (!(std::abs(d_[k]) >= kPivotTolerance)) return false;
    dinv_[k] = 1.0 / d_[k];
  }
  return true;
}

void SparseLdlt::solve(double* x) const {
  for (int i = 0; i < n_; ++i)
    for (int p = lp_[i]; p < lp_[i + 1]; ++p) x[li_[p]] -= lx_[p] * x[i];
  for (int i = 0; i < n_; ++i) x[i] *= dinv_[i];
  for (int i = n_ - 1; i >= 0; --i)
    for (int p = lp_[i]; p < lp_[i + 1]; ++p) x[i] -= lx_[p] * x[li_[p]];
}

}  // namespace icoil::math
