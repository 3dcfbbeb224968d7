#include "mathkit/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "mathkit/gemm.hpp"

namespace icoil::math {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const std::vector<double>& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator+(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + o.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] - o.data_[i];
  return out;
}

Matrix Matrix::operator*(const Matrix& o) const {
  assert(cols_ == o.rows_);
  Matrix out(rows_, o.cols_);
  gemm_f64(rows_, o.cols_, cols_, data_.data(), cols_, o.data_.data(), o.cols_,
           out.data_.data(), o.cols_);
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

std::vector<double> Matrix::apply(const std::vector<double>& x) const {
  assert(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::apply_transpose(const std::vector<double>& x) const {
  assert(x.size() == rows_);
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double v = x[r];
    if (v == 0.0) continue;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * v;
  }
  return y;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm_inf(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) {
    if (std::isnan(x)) return x;  // std::max(m, NaN) would drop it
    m = std::max(m, std::abs(x));
  }
  return m;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

std::vector<double> add(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> sub(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> scale(const std::vector<double>& a, double s) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace icoil::math
