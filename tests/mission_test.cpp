// Mission-layer tests: BayLedger semantics, traffic-agent determinism,
// the multi-leg mission state machine (golden leg sequences, forced
// replans), bit-identical results across TaskPool widths, the curriculum
// mission-leg expander wiring, and the RunReport v2 mission block.
//
// Full mission runs are wall-expensive (seconds each), so every test that
// needs one reads the shared fixture below — two missions run once per
// width, reused by the golden, replan and determinism tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_registry.hpp"
#include "core/task_pool.hpp"
#include "mission/mission.hpp"
#include "mission/traffic.hpp"
#include "sim/curriculum.hpp"
#include "sim/report.hpp"
#include "sim/session.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace icoil::mission {
namespace {

// ---------------------------------------------------------------- ledger

TEST(BayLedgerTest, ClaimStealReleaseSemantics) {
  BayLedger ledger(4);
  EXPECT_EQ(ledger.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) EXPECT_TRUE(ledger.is_free(b));

  EXPECT_TRUE(ledger.claim(1, BayLedger::kEgoOwner));
  EXPECT_EQ(ledger.owner_of(1), BayLedger::kEgoOwner);
  EXPECT_FALSE(ledger.is_free(1));
  // Re-claim by the same owner is idempotent; another owner is refused.
  EXPECT_TRUE(ledger.claim(1, BayLedger::kEgoOwner));
  EXPECT_FALSE(ledger.claim(1, 3));
  EXPECT_EQ(ledger.owner_of(1), BayLedger::kEgoOwner);

  // Steal overrides and reports the evicted owner.
  EXPECT_EQ(ledger.steal(1, 3), BayLedger::kEgoOwner);
  EXPECT_EQ(ledger.owner_of(1), 3);
  EXPECT_EQ(ledger.steal(0, 2), BayLedger::kFree);

  // Release is owner-checked: the wrong owner cannot free a bay.
  ledger.release(1, BayLedger::kEgoOwner);
  EXPECT_EQ(ledger.owner_of(1), 3);
  ledger.release(1, 3);
  EXPECT_TRUE(ledger.is_free(1));
}

// --------------------------------------------------------------- traffic

/// Base world for traffic-only tests: the quiet_lot statics plus the
/// traffic roster, assembled the same way Mission::run_leg does.
world::Scenario traffic_world_scenario(const MissionSpec& spec,
                                       const TrafficSimulator& traffic) {
  world::ScenarioOptions options;
  options.generator = spec.generator;
  options.params = spec.params;
  options.difficulty = spec.difficulty;
  world::Scenario sc = world::make_scenario(options, 42);
  sc.obstacles.erase(
      std::remove_if(sc.obstacles.begin(), sc.obstacles.end(),
                     [](const world::Obstacle& o) { return o.dynamic(); }),
      sc.obstacles.end());
  for (world::Obstacle& o : traffic.roster(1000)) sc.obstacles.push_back(o);
  return sc;
}

TEST(TrafficSimulatorTest, SameSeedReplaysBitForBit) {
  // rush_hour has a 0.4-probability bay claimer, so behaviour dice actually
  // roll; quiet_lot traffic can stay fully deterministic for hundreds of
  // frames and would not distinguish seeds.
  const MissionSpec& spec = MissionRegistry::instance().at("rush_hour");
  world::ScenarioOptions options;
  options.generator = spec.generator;
  options.params = spec.params;
  const world::Scenario probe = world::make_scenario(options, 42);

  TrafficSimulator a(spec.traffic, probe.map, 123);
  TrafficSimulator b(spec.traffic, probe.map, 123);
  TrafficSimulator c(spec.traffic, probe.map, 456);

  world::World wa(traffic_world_scenario(spec, a));
  world::World wb(traffic_world_scenario(spec, b));
  world::World wc(traffic_world_scenario(spec, c));
  a.attach(wa);
  b.attach(wb);
  c.attach(wc);

  // Ego parked well away from every staging point so the ego-clearance
  // gate never suppresses bay claims; run long enough for several claim
  // dice to roll.
  for (int frame = 0; frame < 1600; ++frame) {
    const double t = 0.05 * frame;
    const geom::Pose2 ego{{2.0, 2.0}, 0.0};
    a.set_ego(ego);
    b.set_ego(ego);
    c.set_ego(ego);
    wa.step(0.05);
    wb.step(0.05);
    wc.step(0.05);
    ASSERT_EQ(a.state_fingerprint(), b.state_fingerprint())
        << "diverged at t=" << t;
  }
  for (std::size_t i = 0; i < a.agent_count(); ++i) {
    EXPECT_EQ(a.agent_pose(i).position.x, b.agent_pose(i).position.x);
    EXPECT_EQ(a.agent_pose(i).position.y, b.agent_pose(i).position.y);
    EXPECT_EQ(a.agent_pose(i).heading, b.agent_pose(i).heading);
  }
  // A different seed must diverge (start offsets are seed-independent but
  // behaviour dice are not; the cheapest observable is the fingerprint).
  EXPECT_NE(a.state_fingerprint(), c.state_fingerprint());
}

TEST(TrafficSimulatorTest, RosterNamesAndAttachValidation) {
  const MissionSpec& spec = MissionRegistry::instance().at("quiet_lot");
  world::ScenarioOptions options;
  options.generator = spec.generator;
  const world::Scenario probe = world::make_scenario(options, 42);
  TrafficSimulator traffic(spec.traffic, probe.map, 7);

  const std::vector<world::Obstacle> roster = traffic.roster(500);
  ASSERT_EQ(roster.size(), spec.traffic.agents.size());
  EXPECT_EQ(roster[0].name, "traffic_cruiser_a");
  EXPECT_EQ(roster[0].id, 500);
  for (const world::Obstacle& o : roster) EXPECT_TRUE(o.driven);

  // Attaching to a world without the roster must fail loudly.
  world::Scenario bare = probe;
  world::World world(bare);
  EXPECT_THROW(traffic.attach(world), std::logic_error);
}

// ------------------------------------------------- shared mission fixture

struct MissionFixture {
  MissionResult quiet;        ///< quiet_lot seed 9001 (clean golden run)
  MissionResult contested;    ///< contested_lot seed 9000 (forced replan)
  MissionResult quiet_wide;   ///< same missions, 16-worker pool
  MissionResult contested_wide;
  std::vector<world::Scenario> quiet_legs;  ///< leg_scenarios of `quiet`
  bool quiet_rival_fired = false;
  bool contested_rival_fired = false;
};

/// Runs the two fixture missions on a pool of `workers`; results land in
/// submission order regardless of completion order.
void run_fixture_pair(int workers, MissionResult* quiet,
                      MissionResult* contested,
                      std::vector<world::Scenario>* quiet_legs,
                      bool* quiet_rival, bool* contested_rival) {
  core::TaskPool pool(workers);
  pool.submit([&](const core::TaskPool::Context&) {
    const auto controller = core::ControllerRegistry::instance().build("co");
    Mission m(MissionRegistry::instance().at("quiet_lot"), 9001);
    *quiet = m.run(*controller);
    if (quiet_legs) *quiet_legs = m.leg_scenarios();
    if (quiet_rival) *quiet_rival = m.traffic().rival_fired();
  });
  pool.submit([&](const core::TaskPool::Context&) {
    const auto controller = core::ControllerRegistry::instance().build("co");
    Mission m(MissionRegistry::instance().at("contested_lot"), 9000);
    *contested = m.run(*controller);
    if (contested_rival) *contested_rival = m.traffic().rival_fired();
  });
  pool.wait_idle();
}

const MissionFixture& fixture() {
  static const MissionFixture fx = [] {
    MissionFixture f;
    run_fixture_pair(1, &f.quiet, &f.contested, &f.quiet_legs,
                     &f.quiet_rival_fired, &f.contested_rival_fired);
    run_fixture_pair(16, &f.quiet_wide, &f.contested_wide, nullptr, nullptr,
                     nullptr);
    return f;
  }();
  return fx;
}

// --------------------------------------------------------------- mission

TEST(MissionTest, QuietLotGoldenLegSequence) {
  const MissionResult& r = fixture().quiet;
  EXPECT_EQ(r.version, kMissionResultVersion);
  EXPECT_EQ(r.mission, "quiet_lot");
  EXPECT_EQ(r.method, "CO");  // MissionResult records the controller's name
  EXPECT_EQ(r.seed, 9001u);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.replans, 0);
  EXPECT_GE(r.parked_bay, 0);
  EXPECT_GT(r.park_time, 0.0);
  EXPECT_GT(r.exit_time, r.park_time);

  ASSERT_EQ(r.legs.size(), 6u);
  const LegType golden[6] = {LegType::kEnterLot, LegType::kCruiseToBay,
                             LegType::kPark,     LegType::kDwell,
                             LegType::kUnpark,   LegType::kExit};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(r.legs[i].type, golden[i]) << "leg " << i;
    EXPECT_EQ(r.legs[i].status, LegStatus::kCompleted) << "leg " << i;
  }
  // The park/dwell/unpark legs all reference the bay the mission parked in.
  EXPECT_EQ(r.legs[2].target_bay, r.parked_bay);
  EXPECT_EQ(r.legs[3].target_bay, r.parked_bay);
  EXPECT_EQ(r.legs[4].target_bay, r.parked_bay);
  // No rival in the quiet template.
  EXPECT_FALSE(fixture().quiet_rival_fired);

  // Driving legs only (dwell has no Session), tagged with goals.
  const std::vector<world::Scenario>& legs = fixture().quiet_legs;
  ASSERT_EQ(legs.size(), 5u);
  for (const world::Scenario& sc : legs) {
    bool has_traffic = false;
    for (const world::Obstacle& o : sc.obstacles)
      if (o.driven) has_traffic = true;
    EXPECT_TRUE(has_traffic);
  }
}

TEST(MissionTest, ContestedLotForcesReplan) {
  const MissionResult& r = fixture().contested;
  EXPECT_TRUE(fixture().contested_rival_fired);
  EXPECT_GE(r.replans, 1);

  int cruise_legs = 0, replanned_legs = 0;
  for (const LegResult& leg : r.legs) {
    if (leg.type == LegType::kCruiseToBay) ++cruise_legs;
    if (leg.status == LegStatus::kReplanned) ++replanned_legs;
  }
  EXPECT_GE(cruise_legs, 2);
  EXPECT_GE(replanned_legs, 1);
  EXPECT_GE(r.legs.size(), 3u);
  // Seed 9000 is a verified full success: the mission recovers from the
  // steal, parks in another bay and exits.
  EXPECT_TRUE(r.success);
  EXPECT_NE(r.parked_bay, 4) << "the rival kept the stolen bay";
}

TEST(MissionTest, ContestedLotUnparkGoalClearOfTraffic) {
  // Mission seed 9001 on contested_lot: the entrance-facing unpark goal
  // overlaps the yielding traffic_opportunist, so the ego used to stall
  // short of it until the leg timed out. It keeps the bay heading instead.
  const auto controller = core::ControllerRegistry::instance().build("co");
  Mission m(MissionRegistry::instance().at("contested_lot"), 9001);
  const MissionResult r = m.run(*controller);
  // A replanned leg was cut by the mission (its outcome reads kTimeout);
  // every other leg must complete.
  for (const LegResult& leg : r.legs)
    if (leg.status != LegStatus::kReplanned)
      EXPECT_EQ(leg.status, LegStatus::kCompleted) << to_string(leg.type);
  EXPECT_TRUE(r.success);
}

TEST(MissionTest, BitIdenticalAcrossTaskPoolWidths) {
  const MissionFixture& f = fixture();
  EXPECT_EQ(f.quiet.fingerprint(), f.quiet_wide.fingerprint());
  EXPECT_EQ(f.contested.fingerprint(), f.contested_wide.fingerprint());
  // The fingerprint digests outcome-bearing fields only; spot-check the raw
  // fields too so a fingerprint bug cannot mask a divergence.
  EXPECT_EQ(f.quiet.parked_bay, f.quiet_wide.parked_bay);
  EXPECT_EQ(f.quiet.park_time, f.quiet_wide.park_time);
  EXPECT_EQ(f.quiet.exit_time, f.quiet_wide.exit_time);
  EXPECT_EQ(f.quiet.legs.size(), f.quiet_wide.legs.size());
  EXPECT_EQ(f.contested.replans, f.contested_wide.replans);
  EXPECT_EQ(f.contested.legs.size(), f.contested_wide.legs.size());
  // Wall clock may differ between runs — and must not affect fingerprints.
  EXPECT_EQ(MissionResult{}.fingerprint(), MissionResult{}.fingerprint());
}

TEST(MissionTest, RegistryBuiltinsAndLookup) {
  MissionRegistry& registry = MissionRegistry::instance();
  const std::vector<std::string> names = registry.names();
  for (const char* want : {"quiet_lot", "contested_lot", "rush_hour"})
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  EXPECT_THROW(registry.at("no_such_mission"), std::invalid_argument);
  EXPECT_EQ(registry.find("no_such_mission"), nullptr);
  // Template fingerprints separate revisions AND templates.
  EXPECT_NE(registry.at("quiet_lot").fingerprint(),
            registry.at("contested_lot").fingerprint());
  EXPECT_NE(registry.at("contested_lot").fingerprint(),
            registry.at("rush_hour").fingerprint());
}

// --------------------------------------------------------------- session

TEST(MissionSessionTest, ExplicitStartCarriesStateAndClock) {
  world::ScenarioOptions options;
  options.generator = "multi_row_lot";
  world::Scenario sc = world::make_scenario(options, 42);
  const auto controller = core::ControllerRegistry::instance().build("co");

  vehicle::State start;
  start.pose = {{10.0, 9.6}, 0.5};
  start.speed = 1.25;
  sim::Session session =
      sim::Session::open(sc, *controller, 7, start, /*world_time=*/12.5);

  EXPECT_EQ(session.frames(), 0u);
  EXPECT_EQ(session.sim_time(), 0.0);
  EXPECT_EQ(session.state().pose.x(), 10.0);
  EXPECT_EQ(session.state().speed, 1.25);
  EXPECT_EQ(session.world().time(), 12.5);

  session.step();
  EXPECT_EQ(session.frames(), 1u);
  EXPECT_EQ(session.sim_time(), session.config().dt);
  EXPECT_NEAR(session.world().time(), 12.5 + session.config().dt, 1e-12);
}

// ------------------------------------------------------------ curriculum

TEST(MissionCurriculumTest, ParseAndLabelMissionCells) {
  const sim::Curriculum c = sim::Curriculum::parse("mission:quiet_lot,canonical");
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.entries[0].mission, "quiet_lot");
  EXPECT_EQ(c.entries[0].label(), "mission:quiet_lot");
  EXPECT_TRUE(c.entries[1].mission.empty());
  EXPECT_THROW(sim::Curriculum::parse("mission:"), std::invalid_argument);

  // The mission field participates in the fingerprint only when set, so
  // pre-mission curricula keep their cached dataset/policy fingerprints.
  sim::Curriculum plain = sim::Curriculum::canonical();
  sim::Curriculum with_mission = sim::Curriculum::canonical();
  with_mission.entries[0].mission = "quiet_lot";
  EXPECT_NE(plain.fingerprint(), with_mission.fingerprint());
}

TEST(MissionCurriculumTest, ExpanderProducesRecordableLegs) {
  // Without the hook, mission cells have no expansion.
  sim::set_mission_leg_expander({});
  EXPECT_FALSE(static_cast<bool>(sim::mission_leg_expander()));

  install_curriculum_expander();
  const sim::MissionLegExpander& expand = sim::mission_leg_expander();
  ASSERT_TRUE(static_cast<bool>(expand));

  const std::vector<world::Scenario> legs = expand("quiet_lot", 9001);
  ASSERT_GE(legs.size(), 5u);
  for (const world::Scenario& sc : legs) {
    EXPECT_EQ(sc.generator, "mission:quiet_lot");
    // Traffic is frozen: every obstacle records as a plain static, so the
    // expert's reference planner treats the snapshot as a static scene.
    for (const world::Obstacle& o : sc.obstacles) {
      EXPECT_FALSE(o.driven);
      EXPECT_FALSE(o.dynamic());
    }
  }
  // Legs end at distinct goals (cruise staging vs bay interior vs exit).
  EXPECT_NE(legs.front().map.goal_pose.position.x,
            legs.back().map.goal_pose.position.x);
}

// ---------------------------------------------------------------- report

TEST(MissionReportTest, SchemaV2AndFutureRejected) {
  // A v2 document (the old per-bench mission block) is refused with a
  // pointer to re-record it, not half-read.
  const std::string v2 =
      "{\"schema_version\":2,\"meta\":{\"suite\":\"mission\"},\"cells\":[],"
      "\"mission\":{\"version\":1,\"rows\":[]}}";
  sim::RunReport loaded;
  std::string error;
  EXPECT_FALSE(sim::RunReport::parse(v2, &loaded, &error));
  EXPECT_NE(error.find("unsupported schema_version 2"), std::string::npos);
  EXPECT_NE(error.find("re-record"), std::string::npos);

  // A future schema version is refused, not misread.
  error.clear();
  const std::string v99 = "{\"schema_version\":99,\"cells\":[]}";
  EXPECT_FALSE(sim::RunReport::parse(v99, &loaded, &error));
  EXPECT_NE(error.find("unsupported"), std::string::npos);
}

TEST(MissionReportTest, BaselineComparatorCatchesMissionRegressions) {
  // The mission table shape and gates bench_mission declares.
  const auto make_report = [](double success, double replans_per_mission,
                              const std::string& spec_fp) {
    sim::RunReport r;
    sim::MetricsTable t("mission", {"mission", "method", "spec_fingerprint"},
                        {"success_ratio", "replans_per_mission"});
    t.add_row({"contested_lot", "co", spec_fp},
              {success, replans_per_mission});
    r.tables.push_back(t);
    return r;
  };
  sim::BaselineTolerance tol;
  tol.gates = {{"mission", "success_ratio", sim::ColumnGate::Kind::kMaxDrop,
                0.02},
               {"mission", "replans_per_mission",
                sim::ColumnGate::Kind::kMaxAbsDelta, 0.5}};
  const auto ok = [&](const sim::RunReport& current,
                      const sim::RunReport& baseline) {
    return sim::compare_to_baseline(current, baseline, tol).ok;
  };

  const sim::RunReport baseline = make_report(0.75, 1.0, "abc");
  // Identical run: clean; a success gain is not a regression.
  EXPECT_TRUE(ok(make_report(0.75, 1.0, "abc"), baseline));
  EXPECT_TRUE(ok(make_report(1.0, 1.0, "abc"), baseline));
  // Success collapse: regression.
  EXPECT_FALSE(ok(make_report(0.25, 1.0, "abc"), baseline));
  // Replans stopped firing, or started thrashing: regression either way
  // (the contested template's reason to exist is the forced replan).
  EXPECT_FALSE(ok(make_report(0.75, 0.0, "abc"), baseline));
  EXPECT_FALSE(ok(make_report(0.75, 2.0, "abc"), baseline));
  // Template changed: its row is missing from the baseline and the old row
  // is missing from the run, so the baseline must be re-recorded.
  const sim::BaselineVerdict changed =
      sim::compare_to_baseline(make_report(0.75, 1.0, "def"), baseline, tol);
  EXPECT_FALSE(changed.ok);
  EXPECT_EQ(changed.failures.size(), 2u) << changed.summary();
  // Missing table: regression.
  EXPECT_FALSE(ok(sim::RunReport{}, baseline));
}

}  // namespace
}  // namespace icoil::mission
