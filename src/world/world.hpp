#pragma once

#include <vector>

#include "geom/broadphase.hpp"
#include "geom/obb.hpp"
#include "vehicle/kinematics.hpp"
#include "world/distance_field.hpp"
#include "world/scenario.hpp"

namespace icoil::world {

/// Ground-truth snapshot of one obstacle at the current world time.
struct ObstacleState {
  int id = 0;
  geom::Obb box;
  geom::Vec2 velocity;
  bool dynamic = false;
};

class World;

/// Per-step co-simulation hook: the mission layer attaches one of these to
/// drive behaviour-driven traffic agents (world::Obstacle::driven). The
/// World calls step(dt) inside World::step AFTER its clock advances and
/// BEFORE footprints are re-cached, so collision, clearance and sensing
/// queries in the same frame already see the driver's updated poses. The
/// driver must only mutate the world through drive_obstacle (never the
/// scenario roster) and must be deterministic in the world state it reads.
class WorldDriver {
 public:
  virtual ~WorldDriver() = default;
  virtual void step(World& world, double dt) = 0;
};

/// The live environment: advances dynamic obstacles and answers geometric
/// queries (collisions, goal membership). The World owns ground truth; the
/// sensing module corrupts it into observations.
class World {
 public:
  explicit World(Scenario scenario);

  const Scenario& scenario() const { return scenario_; }
  const ParkingLotMap& map() const { return scenario_.map; }
  double time() const { return time_; }

  /// Advance world time (moves scripted obstacles, then the driver's).
  void step(double dt) {
    time_ += dt;
    if (driver_ != nullptr) driver_->step(*this, dt);
    refresh_dynamic_boxes();
  }
  /// Reset world time to zero.
  void reset() {
    time_ = 0.0;
    refresh_dynamic_boxes();
  }
  /// Set the world clock without stepping anything — mission legs carry the
  /// elapsed mission time into each leg's fresh World so scripted patrol
  /// phases (and the driver's time-triggered behaviours) stay continuous.
  void set_time(double t) {
    time_ = t;
    refresh_dynamic_boxes();
  }

  /// Attach (or detach, with nullptr) the co-simulation driver. On attach
  /// the driver is stepped once with dt = 0 — it applies its current agent
  /// poses without advancing behaviour, so the world is consistent before
  /// the first real step.
  void set_driver(WorldDriver* driver) {
    driver_ = driver;
    if (driver_ != nullptr) driver_->step(*this, 0.0);
    refresh_dynamic_boxes();
  }

  /// Override the pose/velocity of obstacle `index` (scenario order; the
  /// obstacle must be scripted-dynamic or driven). The override sticks until
  /// the next drive_obstacle for the same index and takes effect for every
  /// query immediately. WorldDrivers call this; nothing else should.
  void drive_obstacle(std::size_t index, const geom::Pose2& pose,
                      geom::Vec2 velocity = {});

  /// True when any obstacle footprint centre currently sits inside bay
  /// `bay_index` — the physical half of bay contention (the mission layer's
  /// BayLedger holds the intent half).
  bool bay_occupied(std::size_t bay_index) const;
  /// Indices of bays with no obstacle centre inside them, ascending.
  std::vector<std::size_t> free_bays() const;

  /// Ground-truth obstacle footprints at the current time.
  std::vector<ObstacleState> obstacle_states() const;

  /// Broad-phase cache over the static obstacles (footprints never move).
  const geom::ObbSet& static_obstacle_set() const { return static_set_; }
  /// Indices into scenario().obstacles of the dynamic obstacles.
  const std::vector<std::size_t>& dynamic_obstacle_indices() const {
    return dynamic_indices_;
  }
  /// Dynamic obstacle footprints at the current time, cached per step():
  /// collision/clearance queries run many times per frame and must not
  /// re-derive the scripted poses each call. Index-aligned with
  /// dynamic_obstacle_indices().
  const std::vector<geom::Obb>& dynamic_boxes() const { return dynamic_boxes_; }

  /// Always nullptr: the World keeps no distance field. Its only caller is
  /// perfbench/src/traced_controllers.hpp; delete both together.
  const DistanceField* distance_field() const { return nullptr; }

  /// True when `footprint` hits a STATIC obstacle (exact OBB narrow phase;
  /// shared with the safety monitor's rollout).
  bool static_collision(const geom::Obb& footprint) const {
    return static_set_.any_overlap(footprint);
  }
  /// Exact distance from `footprint` to the nearest static obstacle,
  /// clamped to `cutoff`.
  double static_clearance(const geom::Obb& footprint,
                          double cutoff = geom::kMaxClearance) const {
    return static_set_.min_distance(footprint, cutoff);
  }

  /// True if `footprint` hits any obstacle or leaves the lot bounds.
  bool in_collision(const geom::Obb& footprint) const;
  /// Distance from `footprint` to the nearest obstacle
  /// (geom::kMaxClearance when there is none within that range).
  double clearance(const geom::Obb& footprint) const;

  /// True when the pose is parked: inside goal tolerance in SE(2).
  bool at_goal(const geom::Pose2& pose, double pos_tol = 0.6,
               double heading_tol = 0.35) const;

 private:
  /// Driver-supplied pose override for one dynamic slot.
  struct DrivenPose {
    geom::Pose2 pose;
    geom::Vec2 velocity;
    bool active = false;
  };

  void refresh_dynamic_boxes();
  geom::Obb dynamic_footprint(std::size_t slot) const;

  Scenario scenario_;
  double time_ = 0.0;
  WorldDriver* driver_ = nullptr;           ///< not owned; optional
  /// Broad-phase cache: static obstacle footprints never move, so their
  /// AABBs are computed once; dynamic obstacles are indexed for the
  /// per-query narrow phase.
  geom::ObbSet static_set_;
  std::vector<std::size_t> dynamic_indices_;
  std::vector<geom::Obb> dynamic_boxes_;    ///< footprints at time_
  std::vector<geom::Aabb> dynamic_aabbs_;   ///< their AABBs (prefilter)
  std::vector<DrivenPose> driven_;          ///< per-slot driver overrides
  std::vector<int> slot_of_;                ///< obstacle index -> dynamic slot (-1 static)
};

}  // namespace icoil::world
