#include "mission/mission.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "mathkit/fnv.hpp"
#include "sim/session.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil::mission {

const char* to_string(LegType t) {
  switch (t) {
    case LegType::kEnterLot: return "enter_lot";
    case LegType::kCruiseToBay: return "cruise_to_bay";
    case LegType::kPark: return "park";
    case LegType::kDwell: return "dwell";
    case LegType::kUnpark: return "unpark";
    case LegType::kExit: return "exit";
  }
  return "?";
}

const char* to_string(LegStatus s) {
  switch (s) {
    case LegStatus::kCompleted: return "completed";
    case LegStatus::kReplanned: return "replanned";
    case LegStatus::kFailed: return "failed";
  }
  return "?";
}

std::uint64_t MissionResult::fingerprint() const {
  math::Fnv1a h;
  h.add_int(version);
  h.add_string(mission);
  h.add_string(method);
  h.add_int(static_cast<std::int64_t>(seed));
  h.add_int(success ? 1 : 0);
  h.add_int(replans);
  h.add_int(parked_bay);
  h.add_double(park_time);
  h.add_double(exit_time);
  h.add_int(static_cast<std::int64_t>(legs.size()));
  for (const LegResult& leg : legs) {
    h.add_int(static_cast<std::int64_t>(leg.type));
    h.add_int(leg.target_bay);
    h.add_int(static_cast<std::int64_t>(leg.outcome));
    h.add_int(static_cast<std::int64_t>(leg.status));
    h.add_int(static_cast<std::int64_t>(leg.frames));
    h.add_double(leg.sim_seconds);
    h.add_double(leg.min_clearance);
    h.add_int(leg.deadline_hits);
    // leg.wall_seconds intentionally excluded: fingerprints must be
    // bit-identical across machines and thread counts.
  }
  return h.value();
}

std::uint64_t MissionSpec::fingerprint() const {
  math::Fnv1a h;
  h.add_string(name);
  h.add_string(generator);
  h.add_int(static_cast<std::int64_t>(params.values().size()));
  for (const auto& [key, value] : params.values()) {
    h.add_string(key);
    h.add_double(value);
  }
  h.add_int(static_cast<std::int64_t>(difficulty));
  h.add_double(dwell_seconds);
  h.add_double(leg_time_limit);
  h.add_int(max_replans);
  h.add_double(traffic.rival_claim_time);
  h.add_int(static_cast<std::int64_t>(traffic.agents.size()));
  for (const TrafficAgentSpec& a : traffic.agents) {
    h.add_int(static_cast<std::int64_t>(a.kind));
    h.add_string(a.name);
    h.add_double(a.speed);
    h.add_double(a.half_length);
    h.add_double(a.half_width);
    h.add_int(static_cast<std::int64_t>(a.route.size()));
    for (const geom::Vec2& p : a.route) {
      h.add_double(p.x);
      h.add_double(p.y);
    }
    h.add_double(a.start_offset);
    h.add_double(a.bay_claim_prob);
    h.add_double(a.dwell_seconds);
    h.add_int(a.rival ? 1 : 0);
    h.add_double(a.trigger.min.x);
    h.add_double(a.trigger.min.y);
    h.add_double(a.trigger.max.x);
    h.add_double(a.trigger.max.y);
    h.add_double(a.cooldown_seconds);
  }
  return h.value();
}

// ---------------------------------------------------------------- registry

namespace detail {
void register_builtin_missions(MissionRegistry& registry);  // templates.cpp
}

MissionRegistry::MissionRegistry() { detail::register_builtin_missions(*this); }

MissionRegistry& MissionRegistry::instance() {
  static MissionRegistry registry;
  return registry;
}

void MissionRegistry::add(MissionSpec spec) {
  for (MissionSpec& existing : specs_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  specs_.push_back(std::move(spec));
}

const MissionSpec* MissionRegistry::find(const std::string& name) const {
  for (const MissionSpec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

const MissionSpec& MissionRegistry::at(const std::string& name) const {
  const MissionSpec* spec = find(name);
  if (spec != nullptr) return *spec;
  std::string known;
  for (const std::string& n : names()) known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("MissionRegistry: unknown mission template \"" +
                              name + "\" (known: " + known + ")");
}

std::vector<std::string> MissionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const MissionSpec& s : specs_) out.push_back(s.name);
  std::sort(out.begin(), out.end());
  return out;
}

// ----------------------------------------------------------------- mission

namespace {

/// Base scenario of a mission: the template's generator instance with the
/// scripted dynamic obstacles stripped — the TrafficScript replaces them
/// with behaviour-driven agents.
world::Scenario make_base(const MissionSpec& spec, std::uint64_t seed) {
  world::ScenarioOptions opt;
  opt.generator = spec.generator;
  opt.params = spec.params;
  opt.difficulty = spec.difficulty;
  opt.start_class = world::StartClass::kRemote;
  opt.time_limit = spec.leg_time_limit;
  world::Scenario sc = world::make_scenario(opt, seed);
  sc.obstacles.erase(
      std::remove_if(sc.obstacles.begin(), sc.obstacles.end(),
                     [](const world::Obstacle& o) { return o.dynamic(); }),
      sc.obstacles.end());
  return sc;
}

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Mission::Mission(const MissionSpec& spec, std::uint64_t seed,
                 MissionConfig config)
    : spec_(spec), seed_(seed), config_(config),
      base_(make_base(spec, seed)), statics_(base_.obstacles),
      traffic_(spec.traffic, base_.map, seed ^ 0x7A5C3D2EB4F6E91Dull) {
  // Pre-claim every bay a scenario-static obstacle sits in, so neither the
  // ego nor the cruisers ever target an already-parked-in bay.
  for (std::size_t b = 0; b < base_.map.bays.size(); ++b)
    for (const world::Obstacle& o : statics_)
      if (base_.map.bays[b].contains(o.shape.center))
        traffic_.ledger().claim(b, BayLedger::kStaticOwner);
}

sim::SimConfig Mission::leg_config(LegType type) const {
  sim::SimConfig cfg = config_.sim;
  switch (type) {
    case LegType::kPark:
      break;  // the paper's parking tolerances, unchanged
    case LegType::kExit:
      cfg.goal_pos_tol = config_.cruise_pos_tol;
      cfg.goal_heading_tol = config_.exit_heading_tol;
      cfg.goal_speed_tol = config_.cruise_speed_tol;
      break;
    default:  // enter / cruise / unpark: pass-through waypoints
      cfg.goal_pos_tol = config_.cruise_pos_tol;
      cfg.goal_heading_tol = config_.cruise_heading_tol;
      cfg.goal_speed_tol = config_.cruise_speed_tol;
      break;
  }
  return cfg;
}

int Mission::pick_bay() const {
  int best = -1;
  double best_d = 0.0;
  for (std::size_t b = 0; b < traffic_.ledger().size(); ++b) {
    if (!traffic_.ledger().is_free(b)) continue;
    const double d = geom::distance(
        ego_.pose.position,
        TrafficSimulator::bay_staging_pose(base_.map, b).position);
    if (best < 0 || d < best_d) {
      best = static_cast<int>(b);
      best_d = d;
    }
  }
  return best;
}

LegResult Mission::run_leg(LegType type, int target_bay,
                           const geom::Pose2& goal, int monitor_bay,
                           core::Controller& controller,
                           const core::CancelToken* cancel) {
  const auto wall0 = std::chrono::steady_clock::now();

  world::Scenario sc = base_;
  sc.obstacles = statics_;
  const int first_traffic_id =
      (statics_.empty() ? 0 : statics_.back().id) + 100;
  const auto roster = traffic_.roster(first_traffic_id);
  sc.obstacles.insert(sc.obstacles.end(), roster.begin(), roster.end());
  sc.map.goal_pose = goal;
  sc.time_limit = spec_.leg_time_limit;
  leg_scenarios_.push_back(sc);

  const std::uint64_t leg_seed =
      seed_ ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(ordinal_ + 1));
  ++ordinal_;

  sim::Session session = sim::Session::open(sc, controller, leg_seed, ego_,
                                            elapsed_, leg_config(type), cancel);
  traffic_.attach(session.world_mutable());
  traffic_.set_ego(ego_.pose);

  const auto claim_lost = [&] {
    return monitor_bay >= 0 &&
           traffic_.ledger().owner_of(static_cast<std::size_t>(monitor_bay)) !=
               BayLedger::kEgoOwner;
  };

  LegStatus status = LegStatus::kCompleted;
  if (claim_lost()) status = LegStatus::kReplanned;
  while (status != LegStatus::kReplanned && !session.done()) {
    session.step();
    // One-frame-lagged ego feedback: fixed ordering, so agent behaviour is
    // a pure function of the frame index — never of thread scheduling.
    traffic_.set_ego(session.state().pose);
    if (claim_lost()) status = LegStatus::kReplanned;
  }

  ego_ = session.state();
  elapsed_ += session.sim_time();

  LegResult lr;
  lr.type = type;
  lr.target_bay = target_bay;
  lr.outcome = session.result().outcome;
  lr.frames = session.frames();
  lr.sim_seconds = session.sim_time();
  lr.wall_seconds = wall_since(wall0);
  lr.min_clearance = session.result().min_clearance;
  lr.deadline_hits = session.result().deadline_hits;
  if (status == LegStatus::kReplanned)
    lr.status = LegStatus::kReplanned;
  else
    lr.status = session.result().success() ? LegStatus::kCompleted
                                           : LegStatus::kFailed;
  return lr;
}

LegResult Mission::run_dwell() {
  const auto wall0 = std::chrono::steady_clock::now();

  world::Scenario sc = base_;
  sc.obstacles = statics_;
  const int first_traffic_id =
      (statics_.empty() ? 0 : statics_.back().id) + 100;
  const auto roster = traffic_.roster(first_traffic_id);
  sc.obstacles.insert(sc.obstacles.end(), roster.begin(), roster.end());
  sc.time_limit = spec_.leg_time_limit;

  // No Session: the ego is parked (engine off), only traffic advances.
  world::World world(sc);
  world.set_time(elapsed_);
  traffic_.attach(world);
  traffic_.set_ego(ego_.pose);

  const auto frames = static_cast<std::size_t>(
      std::max(0.0, spec_.dwell_seconds) / config_.sim.dt + 0.5);
  for (std::size_t f = 0; f < frames; ++f) world.step(config_.sim.dt);
  elapsed_ += static_cast<double>(frames) * config_.sim.dt;

  LegResult lr;
  lr.type = LegType::kDwell;
  lr.outcome = sim::Outcome::kSuccess;
  lr.status = LegStatus::kCompleted;
  lr.frames = frames;
  lr.sim_seconds = static_cast<double>(frames) * config_.sim.dt;
  lr.wall_seconds = wall_since(wall0);
  return lr;
}

MissionResult Mission::run(core::Controller& controller,
                           const core::CancelToken* cancel) {
  const auto wall0 = std::chrono::steady_clock::now();

  MissionResult res;
  res.mission = spec_.name;
  res.method = controller.name();
  res.seed = seed_;

  ego_ = {};
  ego_.pose = base_.start_pose;
  elapsed_ = 0.0;
  ordinal_ = 0;
  leg_scenarios_.clear();

  const auto finish = [&](bool success) {
    res.success = success;
    res.wall_seconds = wall_since(wall0);
    return res;
  };

  // Leg 1 — EnterLot: from the remote spawn to the lot entrance (the close
  // spawn band's centre), any aisle-ish heading.
  const geom::Aabb& close = base_.map.spawn_close;
  const geom::Pose2 entrance{(close.min + close.max) * 0.5, 0.0};
  res.legs.push_back(
      run_leg(LegType::kEnterLot, -1, entrance, -1, controller, cancel));
  if (res.legs.back().status != LegStatus::kCompleted) return finish(false);

  // Claim a bay, cruise to its staging point, park. A lost claim (rival
  // steal, or a cruiser that physically beat us) aborts the current leg,
  // releases the claim and retargets — bounded by max_replans.
  int bay = pick_bay();
  bool parked = false;
  while (!parked) {
    if (bay < 0) {
      // Lot full: record the aborted search as a failed cruise leg.
      LegResult lr;
      lr.type = LegType::kCruiseToBay;
      lr.status = LegStatus::kFailed;
      res.legs.push_back(lr);
      return finish(false);
    }
    traffic_.ledger().claim(static_cast<std::size_t>(bay),
                            BayLedger::kEgoOwner);
    const auto b = static_cast<std::size_t>(bay);

    res.legs.push_back(run_leg(
        LegType::kCruiseToBay, bay,
        TrafficSimulator::bay_staging_pose(base_.map, b), bay, controller,
        cancel));
    LegStatus s = res.legs.back().status;
    if (s == LegStatus::kCompleted) {
      res.legs.push_back(run_leg(LegType::kPark, bay,
                                 base_.map.bay_parked_pose(b), bay, controller,
                                 cancel));
      s = res.legs.back().status;
      if (s == LegStatus::kCompleted) {
        parked = true;
        break;
      }
    }
    if (s == LegStatus::kFailed) return finish(false);
    // Replanned (in either leg): drop the claim if we still hold it and
    // retarget. The thief keeps the bay — pick_bay skips it.
    traffic_.ledger().release(b, BayLedger::kEgoOwner);
    ++res.replans;
    if (res.replans > spec_.max_replans) return finish(false);
    bay = pick_bay();
  }
  res.parked_bay = bay;
  res.park_time = elapsed_;

  // Dwell: traffic keeps moving around the parked ego.
  res.legs.push_back(run_dwell());
  res.legs.back().target_bay = bay;

  // Unpark: pull out to the staging point, then release the bay. The goal
  // heading faces the lot entrance rather than repeating the bay heading:
  // the parked pose is nose-out, so the pull-out becomes one forward arc
  // that leaves the ego already pointed the right way — instead of parking
  // it mid-aisle facing the bay row, forcing the exit leg to open with a
  // three-point turn in live traffic. Unless that footprint overlaps a
  // static box or a traffic agent where it stands now: no path reaches such
  // a goal (the planner's search runs out and its fallback drives into the
  // box), so the ego keeps the bay heading instead.
  const auto b = static_cast<std::size_t>(bay);
  const geom::Pose2 staging = TrafficSimulator::bay_staging_pose(base_.map, b);
  geom::Pose2 unpark_goal = staging;
  unpark_goal.heading =
      (base_.start_pose.position - unpark_goal.position).angle();
  {
    const geom::Obb footprint =
        vehicle::BicycleModel(vehicle::VehicleParams{}).footprint(unpark_goal);
    const auto hits = [&](const world::Obstacle& o) {
      return geom::overlaps(footprint, o.shape);
    };
    const std::vector<world::Obstacle> traffic = traffic_.roster(0);
    if (std::any_of(statics_.begin(), statics_.end(), hits) ||
        std::any_of(traffic.begin(), traffic.end(), hits))
      unpark_goal = staging;
  }
  res.legs.push_back(
      run_leg(LegType::kUnpark, bay, unpark_goal, -1, controller, cancel));
  if (res.legs.back().status != LegStatus::kCompleted) return finish(false);
  traffic_.ledger().release(b, BayLedger::kEgoOwner);

  // Exit: back to where we came in. The goal heading is flipped to face OUT
  // of the lot — the planner would otherwise try to reverse-park into the
  // spawn pose's inbound heading, and exit_heading_tol accepts any heading
  // at this waypoint anyway.
  const geom::Pose2 exit_goal{base_.start_pose.position,
                              geom::wrap_angle(base_.start_pose.heading +
                                               geom::kPi)};
  res.legs.push_back(
      run_leg(LegType::kExit, -1, exit_goal, -1, controller, cancel));
  if (res.legs.back().status != LegStatus::kCompleted) return finish(false);

  res.exit_time = elapsed_;
  return finish(true);
}

}  // namespace icoil::mission
