#include "co/hybrid_astar.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "co/heuristic.hpp"
#include "co/reeds_shepp.hpp"
#include "geom/angles.hpp"

namespace icoil::co {

namespace {

/// Lattice of one shared Reeds-Shepp table (the RsLutSpec minus the radius).
struct LutLattice {
  double xy_resolution;  ///< [m]
  double extent;         ///< [m]
  int heading_bins;
};
/// Entries fill on first read, so a finer or wider lattice costs memory, not
/// set-up. Beyond 24 m the coarse table defers to the euclidean floor — far
/// from the goal RS length converges to it anyway, and 24 m covers every
/// lot. RS length varies fastest (heading alignment, cusps) within a few
/// turning radii of the goal, where the search density peaks, so the fine
/// table gives that 12 m near field 2x resolution in all three axes.
constexpr LutLattice kCoarseLut{0.7, 24.0, 36};
constexpr LutLattice kFineLut{0.35, 12.0, 72};

/// Substeps per motion primitive — a compile-time constant so every node
/// carries its incoming arc inline (no per-node heap allocation).
constexpr int kArcSubsteps = 4;

/// Arena node: fixed-size, contiguous, POD-copyable. The incoming primitive
/// arc lives inline; `arc_len` is how many of the slots are valid (always
/// kArcSubsteps for primitive nodes, 0 for the root).
struct Node {
  geom::Pose2 pose;
  geom::Pose2 arc[kArcSubsteps];
  double g = 0.0;
  double steer = 0.0;  ///< steer of the arc that reached this node
  int parent = -1;
  int direction = 1;   ///< direction of the arc that reached this node
  int arc_len = 0;
};

struct QueueEntry {
  double f = 0.0;
  int node = 0;
  bool operator>(const QueueEntry& o) const {
    // Tie-break on arena index so the pop order (hence the returned path)
    // is deterministic whenever two entries share an f value.
    return f != o.f ? f > o.f : node > o.node;
  }
};

/// One motion primitive precomputed in the node's local frame: substep
/// offsets from the expanding pose plus the arc's fixed base cost. Per
/// expansion only one sin/cos of the node heading and a handful of
/// multiply-adds remain — tan(steer), the Euler chain and the cost terms
/// are computed once per plan() instead of once per substep.
struct ArcTemplate {
  struct Sub {
    double lx = 0.0;       ///< local-frame x offset
    double ly = 0.0;       ///< local-frame y offset
    double dheading = 0.0; ///< heading delta from the expanding pose
  };
  Sub sub[kArcSubsteps];
  double steer = 0.0;
  double base_cost = 0.0;  ///< step + steer penalty (direction-independent
                           ///  terms folded in; switch/steer-change are not)
  int direction = 1;
};

/// Flat open-addressed best-g table over packed grid keys: linear probing,
/// power-of-two capacity, grown at 70% load. Replaces unordered_map's
/// per-bucket allocations on the hottest per-push lookup.
class BestGTable {
 public:
  BestGTable() { slots_.resize(kInitialCapacity); }

  /// True when `g` improves (or first sets) the stored value for `key`;
  /// stores it in that case.
  bool improve(std::int64_t key, double g) {
    if (10 * (size_ + 1) >= 7 * slots_.size()) grow();
    Slot* slot = find(key);
    if (!slot->used) {
      slot->used = true;
      slot->key = key;
      slot->g = g;
      ++size_;
      return true;
    }
    if (slot->g <= g) return false;
    slot->g = g;
    return true;
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    double g = 0.0;
    bool used = false;
  };
  static constexpr std::size_t kInitialCapacity = 1u << 13;

  Slot* find(std::int64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32 & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return &slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (!s.used) continue;
      Slot* slot = find(s.key);
      *slot = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace

HybridAStar::HybridAStar(HybridAStarConfig config, vehicle::VehicleParams params)
    : config_(config), params_(params), model_(params) {}

bool HybridAStar::pose_free(const geom::Pose2& pose,
                            const std::vector<geom::Obb>& obstacles,
                            const geom::Aabb& bounds) const {
  const geom::Obb fp = model_.footprint(pose).inflated(config_.obstacle_margin);
  for (const geom::Vec2& c : fp.corners())
    if (!bounds.contains(c)) return false;
  for (const geom::Obb& o : obstacles)
    if (geom::overlaps(fp, o)) return false;
  return true;
}

bool HybridAStar::pose_free(const geom::Pose2& pose,
                            const geom::ObbSet& obstacles,
                            const geom::Aabb& bounds) const {
  const geom::Obb fp = model_.footprint(pose).inflated(config_.obstacle_margin);
  for (const geom::Vec2& c : fp.corners())
    if (!bounds.contains(c)) return false;
  return !obstacles.any_overlap(fp);
}

RefPath HybridAStar::reeds_shepp_fallback(const geom::Pose2& start,
                                          const geom::Pose2& goal) const {
  const ReedsShepp rs(params_.min_turn_radius() * config_.rs_radius_factor);
  const auto path = rs.shortest_path(start, goal);
  std::vector<PathPoint> pts;
  if (path) {
    for (const RsSample& s : rs.sample(start, *path, config_.sample_step))
      pts.push_back({s.pose, s.direction, 0.0});
  } else {
    pts.push_back({start, 1, 0.0});
    pts.push_back({goal, 1, 0.0});
  }
  return RefPath(std::move(pts));
}

std::optional<RefPath> HybridAStar::plan(const geom::Pose2& start,
                                         const geom::Pose2& goal,
                                         const std::vector<geom::Obb>& obstacles,
                                         const geom::Aabb& bounds,
                                         const core::FrameContext* frame,
                                         PlanStats* stats) const {
  PlanStats local_stats;
  PlanStats& st = stats != nullptr ? *stats : local_stats;
  st = PlanStats{};

  const double radius = params_.min_turn_radius() * config_.rs_radius_factor;
  const ReedsShepp rs(radius);
  // Broad-phase cache: every expansion probes the same obstacle set.
  const geom::ObbSet obstacle_set(obstacles);

  // Dolgov et al.'s max of two lower bounds, over the euclidean floor: the
  // non-holonomic-without-obstacles Reeds-Shepp length (a coarse table max'd
  // with a fine near-field one) and the holonomic-with-obstacles Dijkstra
  // cost-to-go, swept over a raster built here from the raw obstacles.
  const auto shared_lut = [radius](const LutLattice& l) {
    return RsHeuristicLut::shared(
        {radius, l.xy_resolution, l.extent, l.heading_bins});
  };
  const auto lut = shared_lut(kCoarseLut);
  const auto lut_fine = shared_lut(kFineLut);
  // Disc the footprint is guaranteed to cover around the rear axle, plus the
  // same margin pose_free inflates by: cells the sweep blocks are provably
  // untraversable, so the cost-to-go stays a lower bound.
  const double axle_disc =
      std::min(params_.width / 2.0,
               params_.length / 2.0 - std::abs(params_.center_offset)) +
      config_.obstacle_margin;
  const DijkstraCostMap costmap(
      world::DistanceField(bounds, obstacles, config_.costmap_resolution),
      goal.position, axle_disc);

  // The RS-table term only applies OUTSIDE the analytic-expansion disc.
  // Inside it the RS shot fires on every pop, so near-goal ordering
  // precision buys nothing — while the table's quantization error (a few
  // decimetres) reshuffles the near-goal plateau and multiplies failing
  // shot attempts on hard instances. Outside the disc the error is small
  // relative to the distances involved and the table guides as well as an
  // exact solve at a fraction of the cost.
  const double lut_gate_sq = config_.rs_shot_radius * config_.rs_shot_radius;
  auto heuristic = [&](const geom::Pose2& p) {
    ++st.heuristic_evals;
    const double dx = p.position.x - goal.position.x;
    const double dy = p.position.y - goal.position.y;
    const double dist_sq = dx * dx + dy * dy;
    double h = std::sqrt(dist_sq);
    if (dist_sq > lut_gate_sq) {
      const geom::Vec2 rel = goal.to_local(p.position);
      const double dth = p.heading - goal.heading;
      h = std::max(h, lut->value_rel(rel.x, rel.y, dth));
      h = std::max(h, lut_fine->value_rel(rel.x, rel.y, dth));
    }
    const double d = costmap.cost_to_go(p.position);
    if (d > h) h = d;
    return h;
  };

  auto key_of = [&](const geom::Pose2& p, int dir) {
    const long xi = std::lround(p.x() / config_.xy_resolution);
    const long yi = std::lround(p.y() / config_.xy_resolution);
    const double h = geom::wrap_angle_2pi(p.heading);
    const long ti = std::lround(h / (geom::kTwoPi / config_.heading_bins)) %
                    config_.heading_bins;
    return pack_grid_key(xi, yi, ti, dir);
  };

  std::vector<Node> nodes;
  nodes.reserve(4096);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;
  BestGTable best_g;

  if (!pose_free(start, obstacle_set, bounds)) return std::nullopt;
  {
    Node root;
    root.pose = start;
    nodes.push_back(root);
  }
  open.push({heuristic(start), 0});
  best_g.improve(key_of(start, 1), 0.0);

  // Motion-primitive templates: steer levels across [-max, +max] in both
  // directions, substep geometry and base cost precomputed once.
  std::vector<ArcTemplate> templates;
  templates.reserve(static_cast<std::size_t>(2 * config_.num_steer_levels));
  for (const int dir : {1, -1}) {
    for (int i = 0; i < config_.num_steer_levels; ++i) {
      const double steer =
          config_.steer_fraction *
          (-params_.max_steer +
           2.0 * params_.max_steer * i / (config_.num_steer_levels - 1));
      ArcTemplate tmpl;
      tmpl.direction = dir;
      tmpl.steer = steer;
      tmpl.base_cost =
          config_.step * (dir < 0 ? config_.reverse_penalty : 1.0) +
          config_.steer_penalty * std::abs(steer) * config_.step;
      const double ds = dir * config_.step / kArcSubsteps;
      const double yaw_rate = std::tan(steer) / params_.wheelbase;
      double lx = 0.0, ly = 0.0, lh = 0.0;
      for (int k = 0; k < kArcSubsteps; ++k) {
        lx += ds * std::cos(lh);
        ly += ds * std::sin(lh);
        lh += ds * yaw_rate;
        tmpl.sub[k] = {lx, ly, lh};
      }
      templates.push_back(tmpl);
    }
  }

  int expansions = 0;
  int pops_since_shot = config_.rs_shot_period;  // allow an immediate try
  std::vector<RsSample> shot;   // successful analytic expansion
  int shot_parent = -1;

  // Frame-budget poll stride: cheap enough to keep latency bounded without
  // paying a clock read per expansion.
  constexpr int kBudgetPollStride = 128;

  while (!open.empty() && expansions < config_.max_expansions) {
    if (frame != nullptr && expansions % kBudgetPollStride == 0 &&
        frame->expired())
      return std::nullopt;  // budget gone: let the caller fall back
    const QueueEntry top = open.top();
    open.pop();
    const int ni = top.node;
    const Node snapshot = nodes[static_cast<std::size_t>(ni)];
    ++expansions;

    // Analytic expansion: a collision-checked Reeds-Shepp shot. Inside
    // rs_shot_radius every pop tries; farther out the attempt period grows
    // with distance so the shot stops burning RS solves across the lot.
    const double goal_dist =
        geom::distance(snapshot.pose.position, goal.position);
    const int shot_period =
        goal_dist < config_.rs_shot_radius
            ? 1
            : config_.rs_shot_period *
                  (1 + static_cast<int>(goal_dist / config_.rs_shot_radius));
    if (++pops_since_shot >= shot_period) {
      pops_since_shot = 0;
      ++st.rs_shot_attempts;
      if (const auto path = rs.shortest_path(snapshot.pose, goal)) {
        // Collision-check the samples from the GOAL end backward: when the
        // goal corridor is blocked, every attempt collides near the goal —
        // the one part all shots share — so the backward walk rejects each
        // in a handful of probes instead of re-checking the long clear run
        // from the start side. Check order never changes the verdict: every
        // sample must be free either way.
        shot.clear();
        rs.for_each_sample(snapshot.pose, *path, config_.sample_step,
                           [&](const RsSample& s) {
                             shot.push_back(s);
                             return true;
                           });
        bool free = true;
        for (std::size_t i = shot.size(); i-- > 0;) {
          if (!pose_free(shot[i].pose, obstacle_set, bounds)) {
            free = false;
            break;
          }
        }
        if (free) {
          shot_parent = ni;
          st.solved_by_shot = true;
          st.solution_cost = snapshot.g + rs.length(*path);
          break;
        }
      }
    }

    // Expand motion primitives by transforming each template through the
    // node pose: one sin/cos per expansion, no allocation per node.
    const double ch = std::cos(snapshot.pose.heading);
    const double sh = std::sin(snapshot.pose.heading);
    for (const ArcTemplate& tmpl : templates) {
      Node next;
      next.arc_len = kArcSubsteps;
      bool free = true;
      for (int k = 0; k < kArcSubsteps; ++k) {
        const ArcTemplate::Sub& s = tmpl.sub[k];
        const geom::Pose2 p{
            snapshot.pose.position.x + s.lx * ch - s.ly * sh,
            snapshot.pose.position.y + s.lx * sh + s.ly * ch,
            geom::wrap_angle(snapshot.pose.heading + s.dheading)};
        if (!pose_free(p, obstacle_set, bounds)) {
          free = false;
          break;
        }
        next.arc[k] = p;
      }
      if (!free) continue;

      double cost = tmpl.base_cost;
      if (snapshot.parent >= 0 && tmpl.direction != snapshot.direction)
        cost += config_.switch_penalty;
      cost += config_.steer_change_penalty * std::abs(tmpl.steer - snapshot.steer);
      const double g = snapshot.g + cost;

      next.pose = next.arc[kArcSubsteps - 1];
      if (!best_g.improve(key_of(next.pose, tmpl.direction), g)) continue;

      next.g = g;
      next.steer = tmpl.steer;
      next.parent = ni;
      next.direction = tmpl.direction;
      nodes.push_back(next);
      open.push({g + heuristic(next.pose), static_cast<int>(nodes.size()) - 1});
    }
  }

  st.expansions = expansions;
  st.nodes = static_cast<int>(nodes.size());
  if (shot_parent < 0) return std::nullopt;

  // Backtrack primitives, then append the analytic expansion.
  std::vector<PathPoint> pts;
  {
    std::vector<int> chain;
    for (int i = shot_parent; i >= 0; i = nodes[static_cast<std::size_t>(i)].parent)
      chain.push_back(i);
    std::reverse(chain.begin(), chain.end());
    pts.push_back({nodes[static_cast<std::size_t>(chain.front())].pose, 1, 0.0});
    for (std::size_t c = 1; c < chain.size(); ++c) {
      const Node& n = nodes[static_cast<std::size_t>(chain[c])];
      for (int k = 0; k < n.arc_len; ++k)
        pts.push_back({n.arc[k], n.direction, 0.0});
    }
  }
  for (std::size_t i = 1; i < shot.size(); ++i)
    pts.push_back({shot[i].pose, shot[i].direction, 0.0});
  // Ensure the exact goal pose terminates the path.
  pts.push_back({goal, pts.empty() ? 1 : pts.back().direction, 0.0});

  // Fix up the direction of the first point.
  if (pts.size() >= 2) pts.front().direction = pts[1].direction;
  return RefPath(std::move(pts));
}

}  // namespace icoil::co
