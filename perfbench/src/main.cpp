// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds and drives it; see perfbench/NOTES.md for the workloads, metrics
// and how steady they are.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1 [--corpus C]
//   perfbench --workload W --seed S --probe        one cold start, then exit
//   perfbench --workload icoil_families --outcomes full-length episodes
//
// Prints one JSON object on its last line of output.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller_registry.hpp"
#include "core/task_pool.hpp"
#include "il/batch_inferencer.hpp"
#include "il/policy.hpp"
#include "metrics.hpp"
#include "serve/frontend.hpp"
#include "sim/session.hpp"
#include "trace.hpp"
#include "traced_controllers.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"

namespace {

namespace pb = perfbench;
using namespace icoil;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- shapes
// Workload sizes. They are part of the benchmark's definition: changing one
// changes what every metric means, so it needs a new baseline.
constexpr int kFamilyInstances = 2;    // corpus instances per generator family
constexpr std::size_t kWindows = 4;    // window starts per family episode
constexpr int kWindowFrames = 16;      // frames each family window runs
constexpr int kIlSessions = 32;        // il_serve_batched sessions
constexpr int kIlFrames = 100;         // frames each served IL episode runs
// One pool worker: a served frame's CPU time from its stage start to its
// commit end is then its latency on a core of its own (see NOTES.md).
constexpr int kServeWorkers = 1;
constexpr int kMaxBatch = 32;

const double kDt = sim::SimConfig{}.dt;
// How far a traced frame's summed layer self times may sit from the pass's
// own timing of that step (the span opens and closes just inside it).
constexpr double kFrameGapMs = 0.5;

/// An episode limit that lets exactly `frames` frames run (the simulator
/// floors time_limit / dt; the half frame keeps rounding out of it).
double limit_for(int frames) { return (frames + 0.5) * kDt; }


std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Flat JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    sep(key);
    if (std::isfinite(v))
      os_ << std::setprecision(17) << v;
    else
      os_ << "null";
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep(key);
    os_ << '"' << v << '"';
    return *this;
  }
  Json& flag(const std::string& key, bool v) {
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    os_ << (first_ ? "{" : ", ") << '"' << key << "\": ";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  bool probe = false;
  bool outcomes = false;
  bool record_starts = false;
  std::uint64_t corpus = 1000;
  std::string starts;  ///< icoil_families window starts file
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = std::stoi(value()) != 0;
    else if (a == "--corpus") o.corpus = std::stoull(value());
    else if (a == "--probe") o.probe = true;
    else if (a == "--outcomes") o.outcomes = true;
    else if (a == "--record-starts") o.record_starts = true;
    else if (a == "--starts") o.starts = value();
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload != "icoil_families" && o.workload != "il_serve_batched")
    throw std::invalid_argument("unknown workload \"" + o.workload + "\"");
  if ((o.outcomes || o.record_starts) && o.workload != "icoil_families")
    throw std::invalid_argument(
        "--outcomes and --record-starts run icoil_families only");
  if (o.workload == "icoil_families" && !o.record_starts && o.starts.empty())
    throw std::invalid_argument("icoil_families needs --starts FILE");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

void add_episode(pb::Digest& d, const sim::EpisodeResult& r) {
  d.add_episode(static_cast<int>(r.outcome), r.frames, r.park_time,
                r.min_clearance);
}

/// Outcome tallies over measured episodes.
struct Tally {
  int episodes = 0;
  int failed = 0;  ///< cut short by a wall-clock budget: never expected
  int parked = 0;
  double park_time_sum = 0.0;

  void add(const sim::EpisodeResult& r) {
    episodes += 1;
    failed += r.outcome == sim::Outcome::kBudgetExceeded ? 1 : 0;
    if (r.success()) {
      parked += 1;
      park_time_sum += r.park_time;
    }
  }
  void add(const Tally& t) {
    episodes += t.episodes;
    failed += t.failed;
    parked += t.parked;
    park_time_sum += t.park_time_sum;
  }
};

// ======================================================= icoil_families
struct EpisodeSpec {
  std::size_t index = 0;  ///< position in the corpus (digest order)
  std::string family;
  std::uint64_t scenario_seed = 0;
  world::Scenario scenario;
  std::uint64_t session_seed = 0;
  std::size_t start_frame = 0;  ///< frame of the full episode a window opens at
  vehicle::State start;         ///< the ego state there, when start_frame > 0
};

/// Window starts of one corpus instance: (frame, ego state) pairs.
using Starts = std::map<std::pair<std::string, std::uint64_t>,
                        std::vector<std::pair<std::size_t, vehicle::State>>>;

/// Reads a starts file: one line per window, "family scenario_seed frame x
/// y heading speed" with the state in hex floats, '#' lines ignored.
Starts load_starts(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read starts file " + path);
  Starts starts;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string family, x, y, heading, speed;
    std::uint64_t seed = 0;
    std::size_t frame = 0;
    if (!(row >> family >> seed >> frame >> x >> y >> heading >> speed))
      throw std::invalid_argument("bad line in " + path + ": " + line);
    vehicle::State state;
    state.pose.position.x = std::strtod(x.c_str(), nullptr);
    state.pose.position.y = std::strtod(y.c_str(), nullptr);
    state.pose.heading = std::strtod(heading.c_str(), nullptr);
    state.speed = std::strtod(speed.c_str(), nullptr);
    starts[{family, seed}].push_back({frame, state});
  }
  return starts;
}

/// Every registered family at normal difficulty, kFamilyInstances scenario
/// seeds each, from the corpus base. With `starts`, every instance gives one
/// window per listed start; without, one episode from the scenario's start.
/// The workload seed permutes the order and seeds each RNG stream.
std::vector<EpisodeSpec> families_corpus(const Options& o, double time_limit,
                                         const Starts* starts) {
  std::vector<EpisodeSpec> corpus;
  for (const std::string& family : world::GeneratorRegistry::instance().names()) {
    for (int k = 0; k < kFamilyInstances; ++k) {
      world::ScenarioOptions opts;
      opts.generator = family;
      opts.difficulty = world::Difficulty::kNormal;
      opts.time_limit = time_limit;
      EpisodeSpec spec;
      spec.family = family;
      spec.scenario_seed = o.corpus + static_cast<std::uint64_t>(k);
      spec.scenario = world::make_scenario(opts, spec.scenario_seed);
      std::vector<std::pair<std::size_t, vehicle::State>> at = {{0, {}}};
      if (starts != nullptr) {
        const auto it = starts->find({family, spec.scenario_seed});
        if (it == starts->end())
          throw std::invalid_argument("no starts for " + family + " " +
                                      std::to_string(spec.scenario_seed));
        at = it->second;
      }
      for (const auto& [frame, state] : at) {
        spec.index = corpus.size();
        spec.session_seed = splitmix(o.seed ^ splitmix(spec.index));
        spec.start_frame = frame;
        spec.start = state;
        corpus.push_back(spec);
      }
    }
  }
  std::uint64_t state = splitmix(o.seed);
  for (std::size_t i = corpus.size(); i > 1; --i) {
    state = splitmix(state);
    std::swap(corpus[i - 1], corpus[state % i]);
  }
  return corpus;
}

sim::Session open_session(const EpisodeSpec& spec, core::Controller& controller) {
  if (spec.start_frame == 0)
    return sim::Session(spec.scenario, controller, spec.session_seed);
  return sim::Session::open(spec.scenario, controller, spec.session_seed,
                            spec.start,
                            static_cast<double>(spec.start_frame) * kDt);
}

struct PassResult {
  std::vector<double> frame_ms;  ///< every frame but the pass's first
  std::vector<double> step_ms;   ///< traced passes: every timed step
  std::vector<double> episode_ms;  ///< stepping time, by corpus index
  double first_ms = 0.0;
  double setup_s = 0.0;          ///< process CPU time before the first frame
  std::uint64_t first_digest = 0;
  std::uint64_t digest = 0;
  Tally tally;
};

/// One pass over the corpus, one session at a time on this thread. With a
/// tracer, episodes run the traced composition and every step is a span.
/// `probe` stops after the first frame. `frame_cap` < 0 runs full episodes.
PassResult run_families_pass(const std::vector<EpisodeSpec>& corpus,
                             const il::IlPolicy& policy, int frame_cap,
                             pb::Tracer* tracer, pb::LayerCounters* counters,
                             bool probe) {
  PassResult out;
  out.episode_ms.assign(corpus.size(), 0.0);
  std::vector<sim::EpisodeResult> results(corpus.size());
  core::ControllerBuildArgs args;
  args.policy = &policy;
  bool first = true;
  for (const EpisodeSpec& spec : corpus) {
    std::unique_ptr<core::Controller> controller;
    if (tracer != nullptr)
      controller = std::make_unique<pb::TracedIcoil>(policy, tracer, counters);
    else
      controller = core::ControllerRegistry::instance().build("icoil", args);
    sim::Session session = open_session(spec, *controller);
    while (!session.done() &&
           (frame_cap < 0 || session.frame() < static_cast<std::size_t>(frame_cap))) {
      const std::size_t before = session.frame();
      const double cpu0 = pb::process_cpu_ms();
      {
        pb::Scope frame(tracer, pb::Layer::kFrame);
        session.step();
      }
      const double ms = pb::process_cpu_ms() - cpu0;
      if (tracer != nullptr) out.step_ms.push_back(ms);
      if (session.frame() == before) continue;  // terminal no-op step
      out.episode_ms[spec.index] += ms;
      if (first) {
        first = false;
        out.first_ms = ms;
        out.setup_s = cpu0 / 1000.0;
        pb::Digest d;
        d.add(session.state().pose.position.x);
        d.add(session.state().pose.position.y);
        d.add(session.state().pose.heading);
        d.add(session.state().speed);
        out.first_digest = d.value();
        if (probe) return out;
      } else {
        out.frame_ms.push_back(ms);
      }
    }
    if (!session.done()) session.step();  // finalises the timeout, no frame
    results[spec.index] = session.result();
    out.tally.add(session.result());
  }
  pb::Digest d;
  for (const sim::EpisodeResult& r : results) add_episode(d, r);
  out.digest = d.value();
  return out;
}

// ======================================================= il_serve_batched
/// The Frontend configuration whose sessions the workload serves: session i
/// plays scenario seed corpus + i with session seed corpus + i.
serve::FrontendConfig serve_config(const Options& o, il::IlPolicy& policy,
                                   double time_limit) {
  serve::FrontendConfig c;
  c.method = "il";
  c.sessions = kIlSessions;
  c.threads = kServeWorkers;
  c.batch_inference = true;
  c.max_batch = kMaxBatch;
  c.time_limit = time_limit;
  c.difficulty = world::Difficulty::kNormal;
  c.base_seed = o.corpus;
  c.policy = &policy;
  c.label = o.workload;
  return c;
}

std::uint64_t digest_of(const std::vector<sim::EpisodeResult>& episodes) {
  pb::Digest d;
  for (const sim::EpisodeResult& r : episodes) add_episode(d, r);
  return d.value();
}

/// Spans and counters of a traced serve unit.
struct ServeTrace {
  std::vector<pb::Tracer> sessions;  ///< one per session
  pb::Tracer tick;                   ///< run_tick spans
  pb::LayerCounters counters;
};

struct ServeUnit {
  std::vector<double> frame_ms;  ///< every frame but each session's first
  double cold_ms = 0.0;          ///< slowest frame of the first tick
  double setup_s = 0.0;          ///< process CPU time before the first tick
  std::uint64_t first_digest = 0;  ///< every ego state after the first tick
  double steady_frames = 0.0;    ///< frames after the first tick
  double steady_cpu_s = 0.0;     ///< tick-loop CPU time after the first tick
  std::vector<sim::EpisodeResult> episodes;  ///< corpus order
};

/// serve::Frontend's batched tick loop from public calls: Session::stage on
/// the pool, BatchInferencer::run_tick, Session::commit on the pool. A frame
/// is timed from its stage start to its commit end, as the Frontend times
/// it, on the process CPU clock. The workload seed permutes the order sessions are staged in. With
/// `trace`, sessions run TracedIl and every call is a span tagged with its
/// tick.
ServeUnit run_serve(const Options& o, il::IlPolicy& policy, double time_limit,
                    ServeTrace* trace) {
  const auto n = static_cast<std::size_t>(kIlSessions);
  const serve::FrontendConfig config = serve_config(o, policy, time_limit);
  std::vector<pb::LayerCounters> counters(n);
  if (trace != nullptr) trace->sessions.assign(n, pb::Tracer());
  core::ControllerBuildArgs args;
  args.policy = &policy;
  std::vector<std::unique_ptr<core::Controller>> controllers;
  std::vector<std::unique_ptr<sim::Session>> sessions;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = config.base_seed + i;
    world::ScenarioOptions opts;
    opts.difficulty = config.difficulty;
    opts.time_limit = config.time_limit;
    if (trace != nullptr)
      controllers.push_back(std::make_unique<pb::TracedIl>(
          policy, &trace->sessions[i], &counters[i]));
    else
      controllers.push_back(
          core::ControllerRegistry::instance().build(config.method, args));
    sessions.push_back(std::make_unique<sim::Session>(
        world::make_scenario(opts, seed), *controllers.back(), seed));
  }
  il::BatchInferencer service(policy, static_cast<std::size_t>(config.max_batch));
  core::TaskPool pool(core::TaskPool::recommended_workers(
      config.threads, kIlSessions, config.thread_cap));

  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  std::uint64_t state = splitmix(o.seed);
  for (std::size_t i = n; i > 1; --i) {
    state = splitmix(state);
    std::swap(active[i - 1], active[state % i]);
  }
  std::vector<char> staged(n, 0);
  std::vector<double> stage_cpu(n, 0.0);
  std::vector<double> latency(n, 0.0);
  pb::Tracer* tick_tracer = trace != nullptr ? &trace->tick : nullptr;
  auto tracer_of = [&](std::size_t i) {
    return trace != nullptr ? &trace->sessions[i] : nullptr;
  };
  ServeUnit out;
  out.setup_s = pb::process_cpu_ms() / 1000.0;
  double after_first = 0.0;
  std::uint32_t tick = 0;
  while (!active.empty()) {
    ++tick;
    if (trace != nullptr) trace->tick.set_tick(tick);
    for (const std::size_t i : active) {
      if (trace != nullptr) trace->sessions[i].set_tick(tick);
      pool.submit([&, i](const core::TaskPool::Context&) {
        stage_cpu[i] = pb::process_cpu_ms();
        pb::Scope s(tracer_of(i), pb::Layer::kServeStage);
        staged[i] = sessions[i]->stage(service) ? 1 : 0;
      });
    }
    pool.wait_idle();
    {
      pb::Scope s(tick_tracer, pb::Layer::kServeTick);
      service.run_tick();
    }
    for (const std::size_t i : active) {
      if (staged[i] == 0) continue;
      pool.submit([&, i](const core::TaskPool::Context&) {
        {
          pb::Scope s(tracer_of(i), pb::Layer::kServeCommit);
          sessions[i]->commit(service);
        }
        latency[i] = pb::process_cpu_ms() - stage_cpu[i];
      });
    }
    pool.wait_idle();
    std::vector<std::size_t> still;
    for (const std::size_t i : active) {
      if (staged[i] != 0) {
        staged[i] = 0;
        if (tick == 1)
          out.cold_ms = std::max(out.cold_ms, latency[i]);
        else
          out.frame_ms.push_back(latency[i]);
      }
      if (!sessions[i]->done()) still.push_back(i);
    }
    active = std::move(still);
    if (tick == 1) {
      after_first = pb::process_cpu_ms();
      pb::Digest d;
      for (const auto& s : sessions) {
        d.add(s->state().pose.position.x);
        d.add(s->state().pose.position.y);
        d.add(s->state().pose.heading);
        d.add(s->state().speed);
      }
      out.first_digest = d.value();
    }
  }
  out.steady_frames = static_cast<double>(out.frame_ms.size());
  out.steady_cpu_s = (pb::process_cpu_ms() - after_first) / 1000.0;
  for (const auto& s : sessions) out.episodes.push_back(s->result());
  if (trace != nullptr)
    for (const pb::LayerCounters& c : counters) trace->counters.merge(c);
  return out;
}

// ============================================================ layer fold
struct LayerFold {
  std::array<double, static_cast<std::size_t>(pb::Layer::kCount)> self{};
  std::array<std::vector<double>, static_cast<std::size_t>(pb::Layer::kCount)>
      durations;
  std::vector<std::pair<double, double>> plans;  ///< plan span intervals
  std::vector<double> root_self;  ///< summed self times under each root span

  double self_of(pb::Layer l) const {
    return self[static_cast<std::size_t>(l)];
  }
  const std::vector<double>& of(pb::Layer l) const {
    return durations[static_cast<std::size_t>(l)];
  }
};

/// Folds one tracer's spans: self time per layer (span minus its children),
/// span durations, and the self times of every span summed under its root.
void fold(const pb::Tracer& tracer, LayerFold& f) {
  const std::vector<pb::Span>& spans = tracer.spans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<std::size_t> root_slot(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    if (s.parent >= 0) {
      const auto parent = static_cast<std::size_t>(s.parent);
      children[parent].push_back({s.t0, s.t1});
      root_slot[i] = root_slot[parent];  // a parent opens before its children
    } else {
      root_slot[i] = f.root_self.size();
      f.root_self.push_back(0.0);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    const double self = pb::self_time(s.t0, s.t1, children[i]);
    const auto l = static_cast<std::size_t>(s.layer);
    f.self[l] += self;
    f.durations[l].push_back(s.t1 - s.t0);
    f.root_self[root_slot[i]] += self;
    if (s.layer == pb::Layer::kPlan) f.plans.push_back({s.t0, s.t1});
  }
}

/// The largest gap between a frame's summed layer self times and the time
/// the pass took for that step on its own clock; infinite when the frames
/// and the steps do not pair up (a span escaped its frame).
double largest_frame_gap(const std::vector<double>& root_self,
                         const std::vector<double>& step_ms) {
  if (root_self.size() != step_ms.size()) return INFINITY;
  double gap = 0.0;
  for (std::size_t i = 0; i < step_ms.size(); ++i)
    gap = std::max(gap, std::abs(step_ms[i] - root_self[i]));
  return gap;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The per-layer metrics every traced run prints; layers a workload does
/// not run read 0.
void layer_metrics(Json& j, const LayerFold& f, const pb::LayerCounters& c,
                   double frames) {
  using pb::Layer;
  auto per_frame = [&](double total) { return frames > 0 ? total / frames : 0.0; };
  // Cold plans: the process's first plan, which builds the shared
  // Reeds-Shepp table, and any plan that started while it ran (and so
  // waited for the table). Every later plan is warm.
  std::vector<std::pair<double, double>> plans = f.plans;
  std::sort(plans.begin(), plans.end());
  double cold_plan = 0.0;
  std::vector<double> warm_plans;
  for (const auto& [t0, t1] : plans) {
    if (t0 < plans.front().second)
      cold_plan = std::max(cold_plan, t1 - t0);
    else
      warm_plans.push_back(t1 - t0);
  }
  j.num("plan.cold_ms", cold_plan);
  j.num("plan.warm_ms", mean_of(warm_plans));
  j.num("plan.expansions", c.plans > 0 ? c.expansions / c.plans : 0.0);
  j.num("plan.solved_ratio",
        c.plans > 0 ? static_cast<double>(c.plans_solved) / c.plans : 0.0);
  j.num("trajopt.ms", mean_of(f.of(Layer::kTrajopt)));
  j.num("trajopt.p99_ms", pb::tail(f.of(Layer::kTrajopt)).value);
  j.num("trajopt.admm_iters", c.co_frames > 0 ? c.admm_iters / c.co_frames : 0.0);
  j.num("trajopt.fail_share",
        c.co_frames > 0 ? static_cast<double>(c.co_failed) / c.co_frames : 0.0);
  j.num("sense.ms", per_frame(f.self_of(Layer::kSense)));
  j.num("detect.ms", per_frame(f.self_of(Layer::kDetect)));
  j.num("hsa.ms", per_frame(f.self_of(Layer::kHsa)));
  j.num("hsa.il_share",
        c.frames > 0 ? static_cast<double>(c.il_frames) / c.frames : 0.0);
}

// ============================================================== workloads
struct Measure {
  bool correct = true;
  std::string why;  ///< first failed check
  void check(bool ok, const std::string& what) {
    if (!ok && correct) {
      correct = false;
      why = what;
    }
  }
};

double sum_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

/// Frame-cost profile of one traced pass (--outcomes), so the timed window
/// can be compared with full-length episodes.
void profile(Json& j, const std::string& at,
             const std::vector<EpisodeSpec>& corpus, const PassResult& p,
             const pb::Tracer& tracer, const pb::LayerCounters& c) {
  LayerFold f;
  fold(tracer, f);
  const pb::Tail t = pb::tail(p.frame_ms);
  j.num(at + ".frames", static_cast<double>(p.frame_ms.size() + 1));
  j.num(at + ".frame_p50_ms", pb::median(p.frame_ms));
  j.num(at + ".frame_p99_ms", t.value).num(at + ".tail_quantile", t.q);
  j.num(at + ".frame_mean_ms", mean_of(p.frame_ms));
  j.num(at + ".trajopt_share",
        sum_of(f.of(pb::Layer::kTrajopt)) / sum_of(f.of(pb::Layer::kFrame)));
  j.num(at + ".capped_share",
        c.co_frames > 0 ? static_cast<double>(c.co_capped) / c.co_frames : 0.0);
  for (const EpisodeSpec& spec : corpus)
    j.num(at + "." + spec.family + "." +
              std::to_string(spec.scenario_seed) + "_s",
          p.episode_ms[spec.index] / 1000.0);
}

/// --record-starts: runs every corpus instance at full length from its
/// scenario start and prints, as a starts file, the ego state at kWindows
/// evenly spaced frames of each episode (the first is the scenario start).
std::string record_starts(const Options& o, const il::IlPolicy& policy) {
  const auto corpus =
      families_corpus(o, world::ScenarioOptions{}.time_limit, nullptr);
  std::vector<std::string> lines(corpus.size());
  core::ControllerBuildArgs args;
  args.policy = &policy;
  for (const EpisodeSpec& spec : corpus) {
    const auto controller = core::ControllerRegistry::instance().build("icoil", args);
    sim::Session session = open_session(spec, *controller);
    std::vector<vehicle::State> states = {session.state()};  // by frame
    while (!session.done()) {
      session.step();
      if (session.frame() == states.size()) states.push_back(session.state());
    }
    std::ostringstream os;
    const std::size_t frames = session.frame();
    for (std::size_t w = 0; w < kWindows; ++w) {
      const std::size_t k = w * frames / kWindows;
      const vehicle::State& s = states[k];
      os << spec.family << ' ' << spec.scenario_seed << ' ' << k << ' '
         << std::hexfloat << s.pose.position.x << ' ' << s.pose.position.y
         << ' ' << s.pose.heading << ' ' << s.speed << '\n';
    }
    lines[spec.index] = os.str();
  }
  std::string out = "# icoil_families window starts, corpus " +
                    std::to_string(o.corpus) +
                    ": family scenario_seed frame x y heading speed\n";
  for (const std::string& l : lines) out += l;
  return out;
}

std::string families(const Options& o) {
  il::IlPolicy policy;
  if (o.record_starts) return record_starts(o, policy);
  const Starts starts = load_starts(o.starts);
  Measure m;
  Json j;
  if (o.outcomes) {
    // The timed window first (it carries the process's cold plan), then the
    // same corpus at full length, both traced.
    const auto window = families_corpus(o, limit_for(kWindowFrames), &starts);
    const auto full =
        families_corpus(o, world::ScenarioOptions{}.time_limit, nullptr);
    pb::Tracer window_tracer, full_tracer;
    pb::LayerCounters window_counters, full_counters;
    const PassResult w = run_families_pass(window, policy, kWindowFrames,
                                           &window_tracer, &window_counters, false);
    const PassResult f = run_families_pass(full, policy, -1, &full_tracer,
                                           &full_counters, false);
    j.num("episodes", f.tally.episodes).num("parked", f.tally.parked);
    j.num("success_ratio", static_cast<double>(f.tally.parked) /
                               std::max(1, f.tally.episodes));
    j.num("park_time_s", f.tally.parked > 0
                             ? f.tally.park_time_sum / f.tally.parked
                             : NAN);
    j.str("digest", hex(f.digest));
    profile(j, "window", window, w, window_tracer, window_counters);
    profile(j, "full", full, f, full_tracer, full_counters);
    return j.done();
  }
  const auto corpus = families_corpus(o, limit_for(kWindowFrames), &starts);
  if (o.probe) {
    const PassResult p = run_families_pass(corpus, policy, kWindowFrames,
                                           nullptr, nullptr, true);
    j.num("setup_s", p.setup_s).num("cold_frame_ms", p.first_ms);
    j.str("first_frame_digest", hex(p.first_digest));
    return j.done();
  }
  if (!o.trace) {
    // Whole passes until the budget is spent; a pass is not started when it
    // would overrun the budget by more than a fifth.
    const auto t0 = Clock::now();
    std::vector<double> samples;
    Tally tally;
    std::uint64_t digest = 0;
    PassResult first;
    int passes = 0;
    double elapsed = 0.0;
    while (passes == 0 || elapsed + elapsed / passes <= 1.2 * o.seconds) {
      PassResult p = run_families_pass(corpus, policy, kWindowFrames, nullptr,
                                       nullptr, false);
      if (passes == 0) {
        digest = p.digest;
        first = p;
      } else {
        m.check(p.digest == digest, "pass digests differ");
        samples.push_back(p.first_ms);  // only the process's first is cold
      }
      samples.insert(samples.end(), p.frame_ms.begin(), p.frame_ms.end());
      tally.add(p.tally);
      ++passes;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    const pb::Tail t = pb::tail(samples);
    j.flag("correct", m.correct && tally.failed == 0).str("why", m.why);
    j.num("attempted", tally.episodes).num("failed", tally.failed);
    j.str("digest", hex(digest));
    j.num("setup_s", first.setup_s)
        .num("cold_frame_ms", first.first_ms)
        .str("first_frame_digest", hex(first.first_digest));
    j.num("frame_p50_ms", pb::median(samples));
    j.num("frame_p99_ms", t.value).num("tail_quantile", t.q);
    j.num("steady_frames", static_cast<double>(samples.size()));
    j.num("frames_per_s",
          1000.0 * static_cast<double>(samples.size()) / sum_of(samples));
    j.num("units", passes).num("measured_s", elapsed);
    j.num("peak_rss_mb", peak_rss_mb());
    return j.done();
  }
  // Traced run: the traced pass first, so that it carries the process's
  // cold plan; then the untraced pass, which must end every episode alike.
  pb::Tracer tracer;
  pb::LayerCounters counters;
  const PassResult traced = run_families_pass(corpus, policy, kWindowFrames,
                                              &tracer, &counters, false);
  const PassResult plain = run_families_pass(corpus, policy, kWindowFrames,
                                             nullptr, nullptr, false);
  m.check(traced.digest == plain.digest, "traced and untraced digests differ");
  LayerFold f;
  fold(tracer, f);
  const double gap = largest_frame_gap(f.root_self, traced.step_ms);
  m.check(gap <= kFrameGapMs,
          "a frame's layer self times do not add up to its timed step");
  const double frames = static_cast<double>(f.of(pb::Layer::kFrame).size());
  auto fps = [](const PassResult& p) {
    return 1000.0 * static_cast<double>(p.frame_ms.size()) / sum_of(p.frame_ms);
  };
  j.flag("correct", m.correct && traced.tally.failed + plain.tally.failed == 0)
      .str("why", m.why);
  j.num("attempted", traced.tally.episodes + plain.tally.episodes)
      .num("failed", traced.tally.failed + plain.tally.failed);
  j.str("digest", hex(plain.digest));
  layer_metrics(j, f, counters, frames);
  j.num("infer.ms", frames > 0 ? f.self_of(pb::Layer::kInfer) / frames : 0.0);
  j.num("infer.forward_ms", 0.0).num("infer.gather_ms", 0.0);
  j.num("infer.scatter_ms", 0.0).num("infer.batch_mean", 0.0);
  j.num("world.ms", frames > 0 ? f.self_of(pb::Layer::kFrame) / frames : 0.0);
  j.num("serve.stage_ms", 0.0).num("serve.tick_ms", 0.0);
  j.num("serve.commit_ms", 0.0).num("serve.commit_max_ms", 0.0);
  j.num("trace.overhead", fps(plain) / fps(traced) - 1.0);
  j.num("frame_gap_ms", gap);
  return j.done();
}

/// Traced serve run: the traced unit first, so that it carries the
/// process's cold frame, then the same unit untraced, then one
/// serve::Frontend run; all three must end every episode alike.
std::string traced_serving(const Options& o, il::IlPolicy& policy) {
  Measure m;
  Json j;
  const double limit = limit_for(kIlFrames);
  ServeTrace trace;
  const ServeUnit traced = run_serve(o, policy, limit, &trace);
  const ServeUnit plain = run_serve(o, policy, limit, nullptr);
  const serve::FrontendResult frontend =
      serve::Frontend(serve_config(o, policy, limit)).run();
  const std::uint64_t digest = digest_of(plain.episodes);
  m.check(digest_of(traced.episodes) == digest,
          "traced and untraced digests differ");
  m.check(digest_of(frontend.episodes) == digest,
          "serve::Frontend and the benchmark's tick loop digests differ");
  LayerFold f;
  for (const pb::Tracer& t : trace.sessions) fold(t, f);
  fold(trace.tick, f);
  // Slowest commit of each tick.
  std::vector<double> commit_max;
  for (const pb::Tracer& t : trace.sessions)
    for (const pb::Span& s : t.spans())
      if (s.layer == pb::Layer::kServeCommit) {
        if (commit_max.size() < s.tick) commit_max.resize(s.tick, 0.0);
        commit_max[s.tick - 1] = std::max(commit_max[s.tick - 1], s.t1 - s.t0);
      }
  const double frames = trace.counters.frames;
  Tally tally;
  for (const sim::EpisodeResult& e : traced.episodes) tally.add(e);
  for (const sim::EpisodeResult& e : plain.episodes) tally.add(e);
  j.flag("correct", m.correct && tally.failed == 0).str("why", m.why);
  j.num("attempted", tally.episodes).num("failed", tally.failed);
  j.str("digest", hex(digest));
  layer_metrics(j, f, trace.counters, frames);
  j.num("infer.ms", frames > 0 ? f.self_of(pb::Layer::kServeTick) / frames : 0.0);
  const auto& b = frontend.stats.batching;
  const double bt = b && b->ticks > 0 ? static_cast<double>(b->ticks) : 1.0;
  j.num("infer.forward_ms", b ? 1000.0 * b->forward_seconds / bt : 0.0);
  j.num("infer.gather_ms", b ? 1000.0 * b->gather_seconds / bt : 0.0);
  j.num("infer.scatter_ms", b ? 1000.0 * b->scatter_seconds / bt : 0.0);
  j.num("infer.batch_mean", b ? b->mean_batch : 0.0);
  j.num("world.ms", frames > 0 ? f.self_of(pb::Layer::kServeCommit) / frames : 0.0);
  j.num("serve.stage_ms", mean_of(f.of(pb::Layer::kServeStage)));
  j.num("serve.tick_ms", mean_of(f.of(pb::Layer::kServeTick)));
  j.num("serve.commit_ms", mean_of(f.of(pb::Layer::kServeCommit)));
  j.num("serve.commit_max_ms", mean_of(commit_max));
  j.num("trace.overhead", (plain.steady_frames / plain.steady_cpu_s) /
                                  (traced.steady_frames / traced.steady_cpu_s) -
                              1.0);
  return j.done();
}

std::string serving(const Options& o) {
  il::IlPolicy policy;
  if (o.trace) return traced_serving(o, policy);
  Measure m;
  Json j;
  if (o.probe) {
    const ServeUnit cold = run_serve(o, policy, limit_for(1), nullptr);
    j.num("setup_s", cold.setup_s).num("cold_frame_ms", cold.cold_ms);
    j.str("first_frame_digest", hex(cold.first_digest));
    return j.done();
  }
  // Whole units until the budget is spent; frame samples and stepping time
  // are pooled over units. A Frontend run over the same sessions closes the
  // run and must end every episode alike.
  const double limit = limit_for(kIlFrames);
  const auto t0 = Clock::now();
  std::vector<double> samples;
  double steady_frames = 0.0, steady_cpu_s = 0.0;
  Tally tally;
  std::uint64_t digest = 0;
  ServeUnit first;
  int units = 0;
  double elapsed = 0.0;
  while (units == 0 || elapsed + elapsed / units <= 1.2 * o.seconds) {
    ServeUnit u = run_serve(o, policy, limit, nullptr);
    const std::uint64_t d = digest_of(u.episodes);
    if (units == 0) digest = d;
    m.check(d == digest, "unit digests differ");
    samples.insert(samples.end(), u.frame_ms.begin(), u.frame_ms.end());
    steady_frames += u.steady_frames;
    steady_cpu_s += u.steady_cpu_s;
    for (const sim::EpisodeResult& e : u.episodes) tally.add(e);
    if (units == 0) first = std::move(u);
    ++units;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  const serve::FrontendResult frontend =
      serve::Frontend(serve_config(o, policy, limit)).run();
  m.check(digest_of(frontend.episodes) == digest,
          "serve::Frontend and the benchmark's tick loop digests differ");
  m.check(!frontend.aborted && frontend.stats.shed == 0,
          "sessions were shed or aborted");
  const pb::Tail t = pb::tail(samples);
  j.flag("correct", m.correct && tally.failed == 0).str("why", m.why);
  j.num("attempted", tally.episodes).num("failed", tally.failed);
  j.str("digest", hex(digest));
  j.num("setup_s", first.setup_s).num("cold_frame_ms", first.cold_ms);
  j.str("first_frame_digest", hex(first.first_digest));
  j.num("frame_p50_ms", pb::median(samples));
  j.num("frame_p99_ms", t.value).num("tail_quantile", t.q);
  j.num("steady_frames", steady_frames);
  j.num("frames_per_s", steady_frames / steady_cpu_s);
  j.num("units", units).num("measured_s", elapsed);
  j.num("peak_rss_mb", peak_rss_mb());
  return j.done();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const std::string out =
        o.workload == "icoil_families" ? families(o) : serving(o);
    std::fputs(out.c_str(), stdout);
    if (out.empty() || out.back() != '\n') std::fputc('\n', stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
