#include "co/trajopt.hpp"

#include <algorithm>
#include <cmath>

#include "geom/angles.hpp"

namespace icoil::co {

TrajOpt::TrajOpt(TrajOptConfig config, vehicle::VehicleParams params)
    : config_(config), params_(params), model_(params) {}

std::vector<double> TrajOpt::disc_offsets() const {
  // Distribute disc centres evenly along the footprint length.
  const int n = std::max(1, config_.collision_discs);
  const double lo = params_.center_offset - params_.length * 0.5;
  const double hi = params_.center_offset + params_.length * 0.5;
  const double seg = (hi - lo) / n;
  std::vector<double> out;
  for (int i = 0; i < n; ++i) out.push_back(lo + seg * (0.5 + i));
  return out;
}

double TrajOpt::disc_radius() const {
  const int n = std::max(1, config_.collision_discs);
  const double seg = params_.length / n;
  return std::hypot(seg * 0.5, params_.width * 0.5);
}

namespace {

struct Lin {
  // s_{h+1} = A s_h + B u_h + c, all 4x4 / 4x2 / 4.
  double a[4][4];
  double b[4][2];
  double c[4];
};

vehicle::State euler_step(const vehicle::State& s, const vehicle::PlannerControl& u,
                          double dt, double wheelbase) {
  vehicle::State out = s;
  out.pose.position.x += s.speed * std::cos(s.pose.heading) * dt;
  out.pose.position.y += s.speed * std::sin(s.pose.heading) * dt;
  out.pose.heading = geom::wrap_angle(
      s.pose.heading + s.speed * std::tan(u.steer) / wheelbase * dt);
  out.speed = s.speed + u.accel * dt;
  return out;
}

// Linearize around the nominal with the heading expressed in its continuous
// lift `theta_lift` (NOT wrapped): the QP's theta variables, the tracking
// cost and the trust region all live in the lifted frame, so the dynamics
// constants must too — mixing frames across the +/-pi seam injects a 2*pi
// inconsistency that wrecks trajectories near the wrap.
Lin linearize(const vehicle::State& s, double theta_lift,
              const vehicle::PlannerControl& u, double dt, double wheelbase) {
  Lin lin{};
  const double v = s.speed;
  const double cth = std::cos(theta_lift), sth = std::sin(theta_lift);
  const double tand = std::tan(u.steer);
  const double sec2 = 1.0 + tand * tand;

  // A = d f / d s
  double a[4][4] = {{1, 0, -v * sth * dt, cth * dt},
                    {0, 1, v * cth * dt, sth * dt},
                    {0, 0, 1, tand / wheelbase * dt},
                    {0, 0, 0, 1}};
  double b[4][2] = {{0, 0}, {0, 0}, {0, v * sec2 / wheelbase * dt}, {dt, 0}};
  std::copy(&a[0][0], &a[0][0] + 16, &lin.a[0][0]);
  std::copy(&b[0][0], &b[0][0] + 8, &lin.b[0][0]);

  // Next state computed in the lifted frame (no wrap).
  const double nx[4] = {s.x() + v * cth * dt, s.y() + v * sth * dt,
                        theta_lift + v * tand / wheelbase * dt, v + u.accel * dt};
  const double sv[4] = {s.x(), s.y(), theta_lift, v};
  const double uv[2] = {u.accel, u.steer};
  for (int i = 0; i < 4; ++i) {
    double acc = nx[i];
    for (int j = 0; j < 4; ++j) acc -= lin.a[i][j] * sv[j];
    for (int j = 0; j < 2; ++j) acc -= lin.b[i][j] * uv[j];
    lin.c[i] = acc;
  }
  return lin;
}

}  // namespace

std::vector<vehicle::PlannerControl> TrajOpt::initial_nominal(
    const vehicle::State& current,
    const std::vector<vehicle::PlannerControl>* warm) const {
  const int H = config_.horizon;
  std::vector<vehicle::PlannerControl> nominal_u(static_cast<std::size_t>(H));
  if (warm && !warm->empty()) {
    for (int h = 0; h < H; ++h) {
      const std::size_t idx = std::min<std::size_t>(h + 1, warm->size() - 1);
      nominal_u[static_cast<std::size_t>(h)] = (*warm)[idx];
    }
  } else {
    // Cold start: a braking nominal. A constant-speed nominal can tunnel
    // through an obstacle, in which case the per-step half-space
    // linearization of (5) puts the tail of the horizon on the far side of
    // the obstacle and legitimizes driving through it.
    double v = current.speed;
    for (int h = 0; h < H; ++h) {
      double a = 0.0;
      if (std::abs(v) > 1e-6)
        a = -std::copysign(std::min(params_.max_brake, std::abs(v) / config_.dt), v);
      nominal_u[static_cast<std::size_t>(h)].accel = a;
      v += a * config_.dt;
    }
  }
  return nominal_u;
}

TrajOptQp TrajOpt::build_qp(const vehicle::State& current,
                            const std::vector<TargetPoint>& targets,
                            const std::vector<PredictedObstacle>& obstacles,
                            const std::vector<vehicle::PlannerControl>& nominal_u) const {
  const int H = config_.horizon;
  const double dt = config_.dt;
  const double L = params_.wheelbase;

  // Nominal rollout.
  std::vector<vehicle::State> nominal(static_cast<std::size_t>(H + 1));
  nominal[0] = current;
  for (int h = 0; h < H; ++h)
    nominal[static_cast<std::size_t>(h + 1)] =
        euler_step(nominal[static_cast<std::size_t>(h)],
                   nominal_u[static_cast<std::size_t>(h)], dt, L);

  // Unwrapped nominal headings (continuous lift).
  std::vector<double> nom_theta(static_cast<std::size_t>(H + 1));
  nom_theta[0] = current.pose.heading;
  for (int h = 0; h < H; ++h) {
    const vehicle::State& s = nominal[static_cast<std::size_t>(h)];
    nom_theta[static_cast<std::size_t>(h + 1)] =
        nom_theta[static_cast<std::size_t>(h)] +
        s.speed * std::tan(nominal_u[static_cast<std::size_t>(h)].steer) / L * dt;
  }

  // Obstacle rows (eq. 5 linearized at the nominal). Each gets a slack
  // variable, which keeps the QP feasible when the trust region around a
  // colliding nominal conflicts with the separating half-spaces. The slacks
  // lead the variable layout, so the rows are collected before anything is
  // indexed.
  struct ObsRow {
    int h;
    double nx, ny, jt, rhs;
  };
  std::vector<ObsRow> obs_rows;
  const auto offsets = disc_offsets();
  const double r_disc = disc_radius();
  for (int h = 1; h <= H; ++h) {
    const vehicle::State& nom = nominal[static_cast<std::size_t>(h)];
    const double cth = std::cos(nom.pose.heading);
    const double sth = std::sin(nom.pose.heading);
    for (const PredictedObstacle& o : obstacles) {
      if (geom::distance(o.box.center, current.pose.position) >=
          config_.obstacle_active_range)
        continue;
      geom::Obb box = o.box;
      box.center += o.velocity * (h * dt);
      for (double off : offsets) {
        const geom::Vec2 pd{nom.x() + cth * off, nom.y() + sth * off};
        const double sd = box.signed_distance_to(pd);
        if (sd > 3.0) continue;  // inactive constraint, skip for size
        geom::Vec2 n;
        if (sd > 1e-6) {
          n = (pd - box.closest_point(pd)).normalized();
        } else {
          n = (pd - box.center).normalized();
          if (n.norm_sq() < 0.5) n = {1.0, 0.0};
        }
        // d p_disc / d theta at the nominal.
        const geom::Vec2 jth{-sth * off, cth * off};
        const double g0 = sd - (r_disc + config_.safety_margin);
        // n·dp >= -g0  ->  n·p + (n·jth) theta >= n·p̄ + (n·jth) θ̄ - g0
        ObsRow row;
        row.h = h;
        row.nx = n.x;
        row.ny = n.y;
        row.jt = n.dot(jth);
        row.rhs = n.x * nom.x() + n.y * nom.y() +
                  row.jt * nom_theta[static_cast<std::size_t>(h)] - g0;
        obs_rows.push_back(row);
      }
    }
  }

  TrajOptQp out;
  out.slacks = static_cast<int>(obs_rows.size());
  const auto sx = [&out](int h, int c) { return out.state_index(h, c); };
  const auto ux = [&out](int h, int c) { return out.control_index(h, c); };
  const int n_vars = 6 * H + out.slacks;
  const int m = 4 * H + 6 * H + 2 * out.slacks;
  math::QpProblem& qp = out.problem;

  // ---- cost ----
  std::vector<math::Triplet> p;
  qp.q.assign(static_cast<std::size_t>(n_vars), 0.0);
  auto add_p = [&p](int i, int j, double v) { p.push_back({i, j, v}); };
  // Tracking cost (eq. 4).
  for (int h = 1; h <= H; ++h) {
    const TargetPoint& t = targets[static_cast<std::size_t>(h - 1)];
    const double theta_ref =
        nom_theta[static_cast<std::size_t>(h)] +
        geom::angle_diff(t.pose.heading, nom_theta[static_cast<std::size_t>(h)]);
    const int ix = sx(h, 0), iy = sx(h, 1), it = sx(h, 2), iv = sx(h, 3);
    add_p(ix, ix, 2.0 * config_.w_pos);
    add_p(iy, iy, 2.0 * config_.w_pos);
    add_p(it, it, 2.0 * config_.w_heading);
    add_p(iv, iv, 2.0 * config_.w_speed);
    qp.q[static_cast<std::size_t>(ix)] -= 2.0 * config_.w_pos * t.pose.x();
    qp.q[static_cast<std::size_t>(iy)] -= 2.0 * config_.w_pos * t.pose.y();
    qp.q[static_cast<std::size_t>(it)] -= 2.0 * config_.w_heading * theta_ref;
    qp.q[static_cast<std::size_t>(iv)] -= 2.0 * config_.w_speed * t.speed;
  }
  // Control effort.
  for (int h = 0; h < H; ++h) {
    add_p(ux(h, 0), ux(h, 0), 2.0 * config_.w_accel);
    add_p(ux(h, 1), ux(h, 1), 2.0 * config_.w_steer);
  }
  // Control smoothness (u_h - u_{h-1})^2.
  for (int h = 1; h < H; ++h) {
    const double wd[2] = {config_.w_daccel, config_.w_dsteer};
    for (int c = 0; c < 2; ++c) {
      const int i0 = ux(h - 1, c), i1 = ux(h, c);
      add_p(i0, i0, 2.0 * wd[c]);
      add_p(i1, i1, 2.0 * wd[c]);
      add_p(i0, i1, -2.0 * wd[c]);
      add_p(i1, i0, -2.0 * wd[c]);
    }
  }
  // Slacks: a heavily penalized quadratic keeps violations minimal.
  constexpr double kSlackWeight = 400.0;
  for (int i = 0; i < out.slacks; ++i) add_p(i, i, 2.0 * kSlackWeight);
  qp.p = math::CsrMatrix::from_triplets(n_vars, n_vars, p);

  // ---- constraint rows: 4H dynamics + 6H bounds + 2 per obstacle row ----
  std::vector<math::Triplet> a;
  a.reserve(static_cast<std::size_t>(4 * H * 7 + 6 * H + 5 * out.slacks));
  qp.l.assign(static_cast<std::size_t>(m), -math::kQpInf);
  qp.u.assign(static_cast<std::size_t>(m), math::kQpInf);
  int row = 0;
  // Structural zeros of the linearization are dropped.
  auto add_a = [&a, &row](int col, double v) {
    if (v != 0.0) a.push_back({row, col, v});
  };
  // Dynamics equalities.
  for (int h = 0; h < H; ++h) {
    const Lin lin = linearize(nominal[static_cast<std::size_t>(h)],
                              nom_theta[static_cast<std::size_t>(h)],
                              nominal_u[static_cast<std::size_t>(h)], dt, L);
    for (int i = 0; i < 4; ++i, ++row) {
      add_a(sx(h + 1, i), 1.0);
      double rhs = lin.c[i];
      if (h == 0) {
        const double s0[4] = {current.x(), current.y(), nom_theta[0], current.speed};
        for (int j = 0; j < 4; ++j) rhs += lin.a[i][j] * s0[j];
      } else {
        for (int j = 0; j < 4; ++j) add_a(sx(h, j), -lin.a[i][j]);
      }
      for (int j = 0; j < 2; ++j) add_a(ux(h, j), -lin.b[i][j]);
      qp.l[static_cast<std::size_t>(row)] = rhs;
      qp.u[static_cast<std::size_t>(row)] = rhs;
    }
  }
  // State bounds: trust region around nominal; speed also physical.
  for (int h = 1; h <= H; ++h) {
    const vehicle::State& nom = nominal[static_cast<std::size_t>(h)];
    const double th_nom = nom_theta[static_cast<std::size_t>(h)];
    const double lo[4] = {nom.x() - config_.trust_pos, nom.y() - config_.trust_pos,
                          th_nom - config_.trust_heading,
                          std::max(-params_.max_speed_rev,
                                   nom.speed - config_.trust_speed)};
    const double hi[4] = {nom.x() + config_.trust_pos, nom.y() + config_.trust_pos,
                          th_nom + config_.trust_heading,
                          std::min(params_.max_speed_fwd,
                                   nom.speed + config_.trust_speed)};
    for (int i = 0; i < 4; ++i, ++row) {
      add_a(sx(h, i), 1.0);
      qp.l[static_cast<std::size_t>(row)] = lo[i];
      qp.u[static_cast<std::size_t>(row)] = hi[i];
    }
  }
  // Control bounds (the boundary set A of eq. (6)).
  for (int h = 0; h < H; ++h) {
    add_a(ux(h, 0), 1.0);
    qp.l[static_cast<std::size_t>(row)] = -params_.max_brake;
    qp.u[static_cast<std::size_t>(row)] = params_.max_accel;
    ++row;
    add_a(ux(h, 1), 1.0);
    qp.l[static_cast<std::size_t>(row)] = -params_.max_steer;
    qp.u[static_cast<std::size_t>(row)] = params_.max_steer;
    ++row;
  }
  // Obstacle half-spaces (eq. 5 linearized) with non-negative slack:
  //   n.p + J theta + s >= rhs,  s >= 0.
  for (int i = 0; i < out.slacks; ++i) {
    const ObsRow& orow = obs_rows[static_cast<std::size_t>(i)];
    add_a(sx(orow.h, 0), orow.nx);
    add_a(sx(orow.h, 1), orow.ny);
    add_a(sx(orow.h, 2), orow.jt);
    add_a(i, 1.0);
    qp.l[static_cast<std::size_t>(row)] = orow.rhs;
    ++row;
    add_a(i, 1.0);
    qp.l[static_cast<std::size_t>(row)] = 0.0;
    ++row;
  }
  qp.a = math::CsrMatrix::from_triplets(m, n_vars, a);
  return out;
}

std::vector<vehicle::PlannerControl> TrajOpt::controls_of(
    const TrajOptQp& qp, const std::vector<double>& x) const {
  std::vector<vehicle::PlannerControl> u(static_cast<std::size_t>(config_.horizon));
  for (int h = 0; h < config_.horizon; ++h) {
    u[static_cast<std::size_t>(h)].accel =
        std::clamp(x[static_cast<std::size_t>(qp.control_index(h, 0))],
                   -params_.max_brake, params_.max_accel);
    u[static_cast<std::size_t>(h)].steer =
        std::clamp(x[static_cast<std::size_t>(qp.control_index(h, 1))],
                   -params_.max_steer, params_.max_steer);
  }
  return u;
}

TrajOptResult TrajOpt::solve(const vehicle::State& current,
                             const std::vector<TargetPoint>& targets,
                             const std::vector<PredictedObstacle>& obstacles,
                             const std::vector<vehicle::PlannerControl>* warm,
                             const core::FrameContext* frame) const {
  TrajOptResult res;
  const int H = config_.horizon;
  if (static_cast<int>(targets.size()) < H) return res;

  std::vector<vehicle::PlannerControl> nominal_u = initial_nominal(current, warm);
  std::vector<double> prev_solution;
  const math::QpSolver solver(config_.qp);
  for (int sqp = 0; sqp < config_.sqp_iterations; ++sqp) {
    // Frame-budget poll between SQP rounds: the first round always runs so
    // a deadline-pressed frame still gets a usable (best-so-far) control;
    // later rounds only refine it.
    if (sqp > 0 && frame != nullptr && frame->expired()) break;

    const TrajOptQp qp = build_qp(current, targets, obstacles, nominal_u);
    const bool warm_ok = prev_solution.size() == qp.problem.q.size();
    math::QpResult sol =
        solver.solve(qp.problem, warm_ok ? &prev_solution : nullptr, nullptr);
    if (!sol.ok() && sol.status != math::QpStatus::kMaxIterations) {
      // Singular/invalid — keep whatever nominal we have.
      break;
    }

    res.objective = sol.objective;
    res.qp_iterations += sol.iterations;
    res.active_obstacle_constraints = qp.slacks;
    nominal_u = controls_of(qp, sol.x);
    prev_solution = std::move(sol.x);
    res.ok = true;
  }

  if (!res.ok) return res;

  // Final nonlinear rollout with the optimized controls.
  res.controls = nominal_u;
  res.control = nominal_u.front();
  res.predicted.assign(1, current);
  for (int h = 0; h < H; ++h)
    res.predicted.push_back(euler_step(res.predicted.back(),
                                       nominal_u[static_cast<std::size_t>(h)],
                                       config_.dt, params_.wheelbase));
  return res;
}

}  // namespace icoil::co
