#pragma once

#include <cstddef>
#include <vector>

#include "mathkit/matrix.hpp"

namespace icoil::math {

/// One (row, col, value) entry of a matrix under assembly.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Compressed sparse row matrix. Row `r` holds the entries
/// `col[k], val[k]` for `k` in `[row_ptr[r], row_ptr[r + 1])`, with column
/// indices strictly increasing. The fields are public so a caller can hand
/// over raw arrays; `well_formed()` checks them.
struct CsrMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> row_ptr{0};  ///< rows + 1 offsets into col/val
  std::vector<int> col;
  std::vector<double> val;

  /// Sums duplicate (row, col) entries in the order they are given and keeps
  /// explicit zeros. Triplets must lie inside rows x cols.
  static CsrMatrix from_triplets(int rows, int cols,
                                 const std::vector<Triplet>& triplets);
  /// Every nonzero entry of `m`.
  static CsrMatrix from_dense(const Matrix& m);
  Matrix to_dense() const;
  CsrMatrix transpose() const;

  std::size_t nnz() const { return val.size(); }
  /// rows + 1 non-decreasing row pointers from 0 to nnz, and column indices
  /// inside [0, cols) strictly increasing within each row.
  bool well_formed() const;

  /// y = M x, with x of size cols and y of size rows. Allocation-free.
  void apply(const double* x, double* y) const;
  std::vector<double> apply(const std::vector<double>& x) const;
};

}  // namespace icoil::math
