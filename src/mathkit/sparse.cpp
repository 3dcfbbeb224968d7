#include "mathkit/sparse.hpp"

#include <cassert>

namespace icoil::math {

CsrMatrix CsrMatrix::from_triplets(int rows, int cols,
                                   const std::vector<Triplet>& triplets) {
  // Stable counting sort by row, then a stable insertion sort by column
  // inside each (short) row, so duplicates are summed in the given order.
  std::vector<int> start(rows + 1, 0);
  for (const Triplet& t : triplets) {
    assert(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols);
    ++start[t.row + 1];
  }
  for (int r = 0; r < rows; ++r) start[r + 1] += start[r];
  std::vector<int> order(triplets.size());
  std::vector<int> next(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < triplets.size(); ++i)
    order[next[triplets[i].row]++] = static_cast<int>(i);

  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(rows + 1, 0);
  m.col.reserve(triplets.size());
  m.val.reserve(triplets.size());
  for (int r = 0; r < rows; ++r) {
    for (int k = start[r] + 1; k < start[r + 1]; ++k) {
      const int moving = order[k];
      int j = k;
      for (; j > start[r] && triplets[order[j - 1]].col > triplets[moving].col; --j)
        order[j] = order[j - 1];
      order[j] = moving;
    }
    const std::size_t row_begin = m.col.size();
    for (int k = start[r]; k < start[r + 1]; ++k) {
      const Triplet& t = triplets[order[k]];
      if (m.col.size() > row_begin && m.col.back() == t.col) {
        m.val.back() += t.value;
      } else {
        m.col.push_back(t.col);
        m.val.push_back(t.value);
      }
    }
    m.row_ptr[r + 1] = static_cast<int>(m.col.size());
  }
  return m;
}

CsrMatrix CsrMatrix::from_dense(const Matrix& d) {
  CsrMatrix m;
  m.rows = static_cast<int>(d.rows());
  m.cols = static_cast<int>(d.cols());
  m.row_ptr.assign(d.rows() + 1, 0);
  for (std::size_t r = 0; r < d.rows(); ++r) {
    for (std::size_t c = 0; c < d.cols(); ++c) {
      if (d(r, c) == 0.0) continue;
      m.col.push_back(static_cast<int>(c));
      m.val.push_back(d(r, c));
    }
    m.row_ptr[r + 1] = static_cast<int>(m.col.size());
  }
  return m;
}

Matrix CsrMatrix::to_dense() const {
  Matrix d(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r)
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      d(static_cast<std::size_t>(r), static_cast<std::size_t>(col[k])) += val[k];
  return d;
}

CsrMatrix CsrMatrix::transpose(std::vector<int>* source) const {
  CsrMatrix t;
  t.rows = cols;
  t.cols = rows;
  t.row_ptr.assign(cols + 1, 0);
  for (int c : col) ++t.row_ptr[c + 1];
  for (int c = 0; c < cols; ++c) t.row_ptr[c + 1] += t.row_ptr[c];
  t.col.resize(col.size());
  t.val.resize(val.size());
  if (source) source->resize(val.size());
  std::vector<int> next(t.row_ptr.begin(), t.row_ptr.end() - 1);
  // Rows are visited in order, so every row of the transpose lists its
  // entries by increasing column.
  for (int r = 0; r < rows; ++r) {
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const int dst = next[col[k]]++;
      t.col[dst] = r;
      t.val[dst] = val[k];
      if (source) (*source)[dst] = k;
    }
  }
  return t;
}

bool CsrMatrix::well_formed() const {
  if (rows < 0 || cols < 0) return false;
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1) return false;
  if (col.size() != val.size()) return false;
  if (row_ptr.front() != 0 || static_cast<std::size_t>(row_ptr.back()) != col.size())
    return false;
  for (int r = 0; r < rows; ++r) {
    if (row_ptr[r + 1] < row_ptr[r] || row_ptr[r + 1] > row_ptr.back()) return false;
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col[k] < 0 || col[k] >= cols) return false;
      if (k > row_ptr[r] && col[k] <= col[k - 1]) return false;
    }
  }
  return true;
}

void CsrMatrix::apply(const double* x, double* y) const {
  for (int r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) acc += val[k] * x[col[k]];
    y[r] = acc;
  }
}

std::vector<double> CsrMatrix::apply(const std::vector<double>& x) const {
  assert(x.size() == static_cast<std::size_t>(cols));
  std::vector<double> y(static_cast<std::size_t>(rows));
  apply(x.data(), y.data());
  return y;
}

}  // namespace icoil::math
