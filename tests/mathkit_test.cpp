#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>

#include "mathkit/gemm.hpp"
#include "mathkit/ldlt.hpp"
#include "mathkit/matrix.hpp"
#include "mathkit/qp.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/sparse.hpp"
#include "mathkit/stats.hpp"
#include "mathkit/table.hpp"

namespace icoil::math {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, InitializerListAndAccess) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix d = Matrix::diagonal({2, 3});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const Matrix tt = t.transpose();
  EXPECT_DOUBLE_EQ(tt(1, 2), 6.0);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, ApplyMatchesMultiply) {
  const Matrix a{{1, 2, 0}, {0, -1, 3}};
  const std::vector<double> x{1, 2, 3};
  const auto y = a.apply(x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, ApplyTransposeMatchesTransposeApply) {
  const Matrix a{{1, 2, 0}, {0, -1, 3}};
  const std::vector<double> x{2, -1};
  const auto y1 = a.apply_transpose(x);
  const auto y2 = a.transpose().apply(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(MatrixTest, VectorHelpers) {
  const std::vector<double> a{1, -2, 3}, b{2, 2, 2};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 3.0);
  EXPECT_NEAR(norm2(b), std::sqrt(12.0), 1e-12);
  EXPECT_DOUBLE_EQ(add(a, b)[1], 0.0);
  EXPECT_DOUBLE_EQ(sub(a, b)[0], -1.0);
  EXPECT_DOUBLE_EQ(scale(a, -1.0)[2], -3.0);
}

// ------------------------------------------------------------------ LDLT

// The upper triangle of a dense symmetric matrix in CSC form, diagonal
// always present: the input layout of SparseLdlt.
struct UpperCsc {
  std::vector<int> col_ptr{0};
  std::vector<int> row_idx;
  std::vector<double> values;
};

UpperCsc upper_csc(const Matrix& m) {
  UpperCsc u;
  for (std::size_t j = 0; j < m.cols(); ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      if (i != j && m(i, j) == 0.0) continue;
      u.row_idx.push_back(static_cast<int>(i));
      u.values.push_back(m(i, j));
    }
    u.col_ptr.push_back(static_cast<int>(u.row_idx.size()));
  }
  return u;
}

std::optional<std::vector<double>> solve_sparse(const Matrix& m, std::vector<double> b) {
  const UpperCsc u = upper_csc(m);
  SparseLdlt f;
  if (!f.analyze(static_cast<int>(m.rows()), u.col_ptr, u.row_idx) ||
      !f.factor(u.values.data()))
    return std::nullopt;
  f.solve(b.data());
  return b;
}

TEST(LdltTest, SolvesSpdSystem) {
  const Matrix m{{4, 1, 0}, {1, 3, -1}, {0, -1, 2}};
  const std::vector<double> b{1, 2, 3};
  const auto x = solve_sparse(m, b);
  ASSERT_TRUE(x.has_value());
  const auto r = m.apply(*x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
}

TEST(LdltTest, FailsOnSingular) {
  const Matrix m{{1, 1}, {1, 1}};
  EXPECT_FALSE(solve_sparse(m, {1, 1}).has_value());
}

TEST(LdltTest, RejectsMalformedPattern) {
  SparseLdlt f;
  EXPECT_FALSE(f.analyze(2, {0, 1, 2}, {0, 0, 1}));  // col_ptr end != nnz
  EXPECT_FALSE(f.analyze(2, {0, 2, 3}, {0, 1, 1}));  // entry below the diagonal
  EXPECT_FALSE(f.analyze(2, {0, 1}, {0}));           // col_ptr too short
  EXPECT_TRUE(f.analyze(2, {0, 1, 3}, {0, 0, 1}));
}

TEST(LdltTest, HandlesIndefiniteQuasiDefinite) {
  // Symmetric quasi-definite (positive then negative block) still factors.
  const Matrix m{{2, 1}, {1, -3}};
  const auto x = solve_sparse(m, {1, 1});
  ASSERT_TRUE(x.has_value());
  const auto r = m.apply(*x);
  EXPECT_NEAR(r[0], 1.0, 1e-9);
  EXPECT_NEAR(r[1], 1.0, 1e-9);
}

TEST(LdltTest, RefactorsNewValuesOnTheSamePattern) {
  const Matrix m1{{4, 1, 0}, {1, 3, -1}, {0, -1, 2}};
  const Matrix m2{{9, 2, 0}, {2, 5, 1}, {0, 1, 7}};
  const UpperCsc u1 = upper_csc(m1), u2 = upper_csc(m2);
  ASSERT_EQ(u1.row_idx, u2.row_idx);
  SparseLdlt f;
  ASSERT_TRUE(f.analyze(3, u1.col_ptr, u1.row_idx));
  for (const auto* pair : {&m1, &m2}) {
    const UpperCsc& u = pair == &m1 ? u1 : u2;
    ASSERT_TRUE(f.factor(u.values.data()));
    std::vector<double> x{1, -2, 3};
    f.solve(x.data());
    const auto r = pair->apply(x);
    EXPECT_NEAR(r[0], 1.0, 1e-9);
    EXPECT_NEAR(r[1], -2.0, 1e-9);
    EXPECT_NEAR(r[2], 3.0, 1e-9);
  }
}

TEST(LdltTest, TridiagonalHasNoFill) {
  const std::size_t n = 12;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 4.0;
    if (i + 1 < n) m(i, i + 1) = m(i + 1, i) = -1.0;
  }
  const UpperCsc u = upper_csc(m);
  SparseLdlt f;
  ASSERT_TRUE(f.analyze(static_cast<int>(n), u.col_ptr, u.row_idx));
  EXPECT_EQ(f.nnz_l(), n - 1);
  ASSERT_TRUE(f.factor(u.values.data()));
}

class LdltRandomSpd : public ::testing::TestWithParam<int> {};

TEST_P(LdltRandomSpd, ResidualSmall) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 8;
  // A^T A + I is SPD; sparsify A so the pattern has structure.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = rng.uniform() < 0.4 ? rng.normal() : 0.0;
  Matrix m = a.transpose() * a;
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 1.0;
  std::vector<double> b(n);
  for (double& v : b) v = rng.normal();
  const auto x = solve_sparse(m, b);
  ASSERT_TRUE(x.has_value());
  const auto r = sub(m.apply(*x), b);
  EXPECT_LT(norm_inf(r), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, LdltRandomSpd, ::testing::Range(0, 20));

// ------------------------------------------------------------------- CSR

TEST(CsrTest, TripletsSumDuplicatesAndSortColumns) {
  const CsrMatrix m =
      CsrMatrix::from_triplets(2, 3, {{1, 2, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {0, 1, 0.5}});
  ASSERT_TRUE(m.well_formed());
  EXPECT_EQ(m.row_ptr, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(m.col, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(m.val, (std::vector<double>{2.5, 3.0, 1.0}));
}

TEST(CsrTest, ApplyAndTransposeMatchDense) {
  const Matrix d{{1, 0, 2}, {0, 0, 0}, {-1, 3, 0}};
  const CsrMatrix m = CsrMatrix::from_dense(d);
  EXPECT_EQ(m.nnz(), 4u);
  const std::vector<double> x{1, 2, 3};
  EXPECT_EQ(m.apply(x), d.apply(x));
  EXPECT_EQ(m.transpose().apply(x), d.transpose().apply(x));
  const Matrix back = m.transpose().to_dense().transpose();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(back(i, j), d(i, j));
  // The entry map names the entry each transposed value copies.
  std::vector<int> source;
  const CsrMatrix t = m.transpose(&source);
  EXPECT_EQ(source, (std::vector<int>{0, 2, 3, 1}));
  for (std::size_t k = 0; k < source.size(); ++k)
    EXPECT_EQ(t.val[k], m.val[static_cast<std::size_t>(source[k])]);
}

// -------------------------------------------------------------------- QP

TEST(QpTest, UnconstrainedQuadratic) {
  // min 0.5 x^T I x - [1,2]^T x  ->  x = (1, 2)
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix::identity(2));
  p.q = {-1, -2};
  p.a = CsrMatrix::from_dense(Matrix(0, 2));
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 2.0, 1e-3);
}

TEST(QpTest, BoxConstrainedProjectsOntoBounds) {
  // min (x-5)^2 s.t. x <= 1
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix{{2}});
  p.q = {-10};
  p.a = CsrMatrix::from_dense(Matrix{{1}});
  p.l = {-kQpInf};
  p.u = {1.0};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
}

TEST(QpTest, EqualityConstraint) {
  // min x^2 + y^2 s.t. x + y = 2 -> (1, 1)
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix::identity(2) * 2.0);
  p.q = {0, 0};
  p.a = CsrMatrix::from_dense(Matrix{{1, 1}});
  p.l = {2.0};
  p.u = {2.0};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(QpTest, ActiveInequalityMixesWithEquality) {
  // min (x-3)^2 + (y+1)^2  s.t. x + y = 1, y >= 0  ->  x = 1, y = 0.
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix::identity(2) * 2.0);
  p.q = {-6.0, 2.0};
  p.a = CsrMatrix::from_dense(Matrix{{1, 1}, {0, 1}});
  p.l = {1.0, 0.0};
  p.u = {1.0, kQpInf};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 5e-3);
  EXPECT_NEAR(r.x[1], 0.0, 5e-3);
}

TEST(QpTest, WarmStartReducesIterations) {
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix::identity(4) * 2.0);
  p.q = {-1, -2, -3, -4};
  p.a = CsrMatrix::from_dense(Matrix::identity(4));
  p.l = {0, 0, 0, 0};
  p.u = {1, 1, 1, 1};
  QpSolver solver;
  const QpResult cold = solver.solve(p);
  ASSERT_TRUE(cold.ok());
  const QpResult warm = solver.solve(p, {cold.x, cold.y, cold.rho});
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm.iterations, cold.iterations);
}

// The residuals of this QP differ in scale by about two orders: its
// duals are about 140 while its constraint values are about 1. Unscaled,
// sqrt(r_prim / r_dual) stays near 4, inside the [0.2, 5] dead band, so
// rho stayed at 0.1 and the solve ran to the 4000-iteration cap 0.0016 from
// the solution. Divided by their scales, the residuals move rho at once.
TEST(QpTest, AdaptiveRhoUsesScaledResiduals) {
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix{{200, 50}, {50, 100}});
  p.q = {-300, -200};
  p.a = CsrMatrix::from_dense(Matrix{{1, 1}, {1, -1}, {1, 0}});
  p.l = {-kQpInf, -0.5, -kQpInf};
  p.u = {1.0, 0.5, 0.8};
  const QpSettings settings;
  const QpResult r = QpSolver(settings).solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.iterations, 10 * settings.check_interval);
  EXPECT_GT(r.rho, settings.rho);
  EXPECT_NEAR(r.x[0], 0.75, 1e-3);
  EXPECT_NEAR(r.x[1], 0.25, 1e-3);
  EXPECT_NEAR(r.y[0], 137.5, 0.5);
}

TEST(QpTest, WarmStartCarriesRho) {
  QpSettings settings;
  settings.adaptive_rho = false;
  QpSolver solver(settings);
  const QpProblem p = [] {
    QpProblem q;
    q.p = CsrMatrix::from_dense(Matrix::identity(2) * 2.0);
    q.q = {-4.0, 1.0};
    q.a = CsrMatrix::from_dense(Matrix::identity(2));
    q.l = {-1.0, -1.0};
    q.u = {1.0, 1.0};
    return q;
  }();
  EXPECT_EQ(solver.solve(p).rho, settings.rho);
  EXPECT_EQ(solver.solve(p, {{}, {}, 7.0}).rho, 7.0);
  // A rho that is not finite and positive starts at the configured one.
  for (const double bad : {0.0, -1.0, std::nan("")})
    EXPECT_EQ(solver.solve(p, {{}, {}, bad}).rho, settings.rho);
  // Vectors of the wrong size start at 0, as no warm start does.
  const QpResult cold = solver.solve(p);
  const QpResult odd = solver.solve(p, {{1.0, 2.0, 3.0}, {4.0}, 0.0});
  EXPECT_EQ(odd.iterations, cold.iterations);
  EXPECT_EQ(odd.x, cold.x);
}

TEST(QpTest, RuizEquilibrationMatchesHandComputedPass) {
  // Column norms of [P; A]: 100, 16 and 1e-6 (below 1e-4, so left alone);
  // row norms of A: 100 and 0.25. One pass gives D = (0.1, 0.25, 1) and
  // E = (0.1, 2); the scaled P has column norms 0.04, 1 and 1e-6, whose
  // mean beats |Dq| = 0.2, so c = 1 / mean.
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix{{4, 0, 0}, {0, 16, 0}, {0, 0, 1e-6}});
  p.q = {2, 0, 0};
  p.a = CsrMatrix::from_dense(Matrix{{100, 0, 0}, {0, 0.25, 0}});
  p.l = {-1, 3};
  p.u = {1, 3};
  ASSERT_EQ(kRuizPasses, 1);
  QpScaling s;
  ruiz_equilibrate(p, s);
  const double c = 1.0 / ((0.04 + 1.0 + 1e-6) / 3.0);
  EXPECT_EQ(s.d, (std::vector<double>{0.1, 0.25, 1.0}));
  EXPECT_EQ(s.e, (std::vector<double>{0.1, 2.0}));
  EXPECT_DOUBLE_EQ(s.c, c);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(s.d_inv[j], 1.0 / s.d[j]);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(s.e_inv[i], 1.0 / s.e[i]);
  const Matrix ps = p.p.to_dense();
  EXPECT_DOUBLE_EQ(ps(0, 0), 0.04 * c);
  EXPECT_DOUBLE_EQ(ps(1, 1), c);
  EXPECT_DOUBLE_EQ(ps(2, 2), 1e-6 * c);
  EXPECT_DOUBLE_EQ(p.q[0], 0.2 * c);
  const Matrix as = p.a.to_dense();
  EXPECT_DOUBLE_EQ(as(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(as(1, 1), 0.125);
  EXPECT_DOUBLE_EQ(p.l[0], -0.1);
  EXPECT_DOUBLE_EQ(p.u[0], 0.1);
  EXPECT_DOUBLE_EQ(p.l[1], 6.0);
  EXPECT_DOUBLE_EQ(p.u[1], 6.0);
}

TEST(QpTest, RejectsInvalidProblem) {
  QpProblem p;  // empty everything but mismatched bounds
  p.p = CsrMatrix::from_dense(Matrix::identity(2));
  p.q = {0, 0};
  p.a = CsrMatrix::from_dense(Matrix{{1, 0}});
  p.l = {1.0};
  p.u = {0.0};  // l > u
  const QpResult r = QpSolver().solve(p);
  EXPECT_EQ(r.status, QpStatus::kInvalidProblem);
}

TEST(QpTest, SolutionSatisfiesConstraints) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal() * 0.3;
    Matrix hess = a.transpose() * a;
    for (std::size_t i = 0; i < n; ++i) hess(i, i) += 1.0;
    QpProblem p;
    p.p = CsrMatrix::from_dense(hess);
    p.q.assign(n, 0.0);
    for (double& v : p.q) v = rng.normal();
    p.a = CsrMatrix::from_dense(Matrix::identity(n));
    p.l.assign(n, -1.0);
    p.u.assign(n, 1.0);
    const QpResult r = QpSolver().solve(p);
    ASSERT_TRUE(r.ok());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(r.x[i], -1.0 - 1e-3);
      EXPECT_LE(r.x[i], 1.0 + 1e-3);
    }
  }
}

TEST(QpTest, ObjectiveNotWorseThanFeasibleGuess) {
  // Compare solver objective against an arbitrary feasible point.
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix{{2, 0}, {0, 4}});
  p.q = {-2, -8};
  p.a = CsrMatrix::from_dense(Matrix::identity(2));
  p.l = {0, 0};
  p.u = {10, 10};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  const std::vector<double> guess{0.5, 0.5};
  const double guess_obj = 0.5 * dot(guess, p.p.apply(guess)) + dot(p.q, guess);
  EXPECT_LE(r.objective, guess_obj + 1e-6);
}

// A NaN input once came back as kSolved with a NaN solution: norm_inf
// dropped NaN (std::max(0.0, NaN) is 0.0), so every residual read 0 and
// the first check "converged". Each malformed input below must be
// rejected as kInvalidProblem before any iteration runs.

// min x0^2 + x1^2 over the box [-1, 1]^2 with the trajectory-optimization
// settings; each test breaks one field.
QpProblem box_qp() {
  QpProblem p;
  p.p = CsrMatrix::from_dense(Matrix::identity(2) * 2.0);
  p.q = {0.5, 1.0};
  p.a = CsrMatrix::from_dense(Matrix::identity(2));
  p.l = {-1.0, -1.0};
  p.u = {1.0, 1.0};
  return p;
}

QpStatus solve_status(const QpProblem& p) {
  return QpSolver({.max_iterations = 500, .eps_abs = 1e-3, .eps_rel = 1e-3}).solve(p).status;
}

TEST(QpInvalidInput, BaselineBoxQpSolves) {
  EXPECT_EQ(solve_status(box_qp()), QpStatus::kSolved);
}

TEST(QpInvalidInput, NanGradient) {
  QpProblem p = box_qp();
  p.q[0] = std::nan("");
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, InfiniteGradient) {
  QpProblem p = box_qp();
  p.q[1] = INFINITY;
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, NanLowerBound) {
  QpProblem p = box_qp();
  p.l[1] = std::nan("");
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, NanUpperBound) {
  QpProblem p = box_qp();
  p.u[0] = std::nan("");
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, LowerAboveUpper) {
  QpProblem p = box_qp();
  p.l[0] = 2.0;
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, NonFiniteHessianValue) {
  QpProblem p = box_qp();
  p.p.val[1] = std::nan("");
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, NonFiniteConstraintValue) {
  QpProblem p = box_qp();
  p.a.val[0] = -INFINITY;
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, RowPointerCountMismatch) {
  QpProblem p = box_qp();
  p.a.row_ptr = {0, 2};  // m + 1 = 3 pointers expected
  p.a.col = {0, 1};
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, RowPointersNotMonotone) {
  QpProblem p = box_qp();
  // Three rows whose pointers step back (2 -> 1) while staying inside nnz.
  p.a = CsrMatrix{3, 2, {0, 2, 1, 3}, {0, 1, 0}, {1.0, 1.0, 1.0}};
  p.l = {-1.0, -1.0, -1.0};
  p.u = {1.0, 1.0, 1.0};
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, RowPointersDoNotCoverEntries) {
  QpProblem p = box_qp();
  p.p.row_ptr.back() = 1;  // leaves the second entry outside every row
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, ColumnOutOfRange) {
  QpProblem p = box_qp();
  p.a.col[1] = 2;
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, NegativeColumn) {
  QpProblem p = box_qp();
  p.p.col[0] = -1;
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, DuplicateColumnInRow) {
  QpProblem p = box_qp();
  p.a = CsrMatrix{2, 2, {0, 2, 3}, {0, 0, 1}, {1.0, 1.0, 1.0}};
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, DescendingColumnsInRow) {
  QpProblem p = box_qp();
  p.a = CsrMatrix{2, 2, {0, 2, 2}, {1, 0}, {1.0, 1.0}};
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, ShapeMismatch) {
  QpProblem p = box_qp();
  p.a.cols = 3;
  EXPECT_EQ(solve_status(p), QpStatus::kInvalidProblem);
}

TEST(QpInvalidInput, NormInfPropagatesNan) {
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(norm_inf({nan, 1.0})));
  EXPECT_TRUE(std::isnan(norm_inf({1.0, nan})));
  EXPECT_TRUE(std::isnan(norm_inf({5.0, nan, 1.0})));
  EXPECT_DOUBLE_EQ(norm_inf({-5.0, 1.0}), 5.0);
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const double v = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, EmptyStatsAreZero) {
  const RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// ------------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, ForkDiverges) {
  Rng a(9);
  Rng b = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.uniform() != b.uniform();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// ------------------------------------------------------------------ gemm

// The dispatched blocked kernel promises BIT-identical results to the
// reference triple loop (see gemm.hpp): exercise full tiles, ragged edges
// in both m and n, and the accumulate path, in both precisions, with exact
// equality.
template <typename T, typename GemmFn, typename NaiveFn>
void check_gemm_matches_naive(GemmFn gemm, NaiveFn naive) {
  Rng rng(2024);
  const std::size_t sizes[] = {1, 2, 5, 6, 7, 13, 16, 31, 37, 64, 70};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(sizes)) - 1))];
    const std::size_t n = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(sizes)) - 1))];
    const std::size_t k = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(sizes)) - 1))];
    const bool accumulate = trial % 2 == 1;

    std::vector<T> a(m * k), b(k * n);
    std::vector<T> c_blocked(m * n), c_naive(m * n);
    for (auto& v : a) v = static_cast<T>(rng.normal());
    for (auto& v : b) v = static_cast<T>(rng.normal());
    for (std::size_t i = 0; i < m * n; ++i)
      c_blocked[i] = c_naive[i] = static_cast<T>(rng.normal());

    gemm(m, n, k, a.data(), k, b.data(), n, c_blocked.data(), n, accumulate);
    naive(m, n, k, a.data(), k, b.data(), n, c_naive.data(), n, accumulate);

    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c_blocked[i], c_naive[i])
          << "m=" << m << " n=" << n << " k=" << k
          << " accumulate=" << accumulate << " elem " << i;
  }
}

TEST(GemmTest, BlockedMatchesNaiveBitwiseF32) {
  check_gemm_matches_naive<float>(&gemm_f32, &gemm_naive_f32);
}

TEST(GemmTest, BlockedMatchesNaiveBitwiseF64) {
  check_gemm_matches_naive<double>(&gemm_f64, &gemm_naive_f64);
}

TEST(GemmTest, KernelNameIsKnown) {
  const std::string name = gemm_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "portable") << name;
}

TEST(MatrixTest, ElementwiseOpsMatchManualLoops) {
  Rng rng(9);
  Matrix a(5, 7), b(5, 7);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  const Matrix sum = a + b;
  const Matrix diff = a - b;
  const Matrix scaled = a * 2.5;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(sum(i, j), a(i, j) + b(i, j));
      EXPECT_EQ(diff(i, j), a(i, j) - b(i, j));
      EXPECT_EQ(scaled(i, j), a(i, j) * 2.5);
    }
}

TEST(MatrixTest, MultiplyMatchesNaiveGemm) {
  Rng rng(17);
  Matrix a(11, 23), b(23, 6);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const Matrix c = a * b;
  std::vector<double> av(a.rows() * a.cols()), bv(b.rows() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) av[i * a.cols() + j] = a(i, j);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) bv[i * b.cols() + j] = b(i, j);
  std::vector<double> cv(a.rows() * b.cols());
  gemm_naive_f64(a.rows(), b.cols(), a.cols(), av.data(), a.cols(), bv.data(),
                 b.cols(), cv.data(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      EXPECT_EQ(c(i, j), cv[i * b.cols() + j]) << i << "," << j;
}

// ----------------------------------------------------------------- table

TEST(TableTest, PrintAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row_numeric("b", {2.5}, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

}  // namespace
}  // namespace icoil::math
