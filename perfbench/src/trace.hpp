#pragma once

// In-memory span recorder for the traced runs. Spans are recorded from the
// benchmark's own code around calls into each layer of the program; nothing
// inside the program is instrumented.

#include <time.h>

#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU time the whole process has used, every thread, in milliseconds. The
/// benchmark times frames and spans on this clock, not the wall clock: it
/// stops while the host deschedules the VM's vCPUs (steal time), which
/// otherwise sets most of the run-to-run spread on a shared host, and it
/// still counts work a frame hands to other threads.
inline double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return 1e3 * static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_nsec);
}

enum class Layer {
  kFrame,        ///< one control frame, as Session::step() runs it
  kPlan,         ///< co: hybrid-A* reference plan (first frame of an episode)
  kSense,        ///< sensing: BEV render + image noise
  kInfer,        ///< il: single-observation forward
  kDetect,       ///< sensing: detection + obstacle distances
  kHsa,          ///< core: HSA push + guarded mode switch
  kTrajopt,      ///< co: CoPlanner::act, the SQP trajectory optimisation
  kSafety,       ///< core: IL-mode safety filter
  kServeStage,   ///< serve: Session::stage for one session
  kServeTick,    ///< serve: BatchInferencer::run_tick
  kServeCommit,  ///< serve: Session::commit for one session
  kCount
};

struct Span {
  Layer layer = Layer::kFrame;
  int parent = -1;          ///< index into the same Tracer, -1 for a root
  std::uint32_t tick = 0;   ///< shared by every span of one serve tick
  double t0 = 0.0, t1 = 0.0;  ///< process_cpu_ms() at begin and end
};

/// One recorder per thread of control (a session, or the tick loop):
/// begin/end nest through a parent stack, so a span opened while another is
/// open becomes its child.
class Tracer {
 public:
  int begin(Layer layer) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({layer, parent, tick_, process_cpu_ms(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end() {
    spans_[static_cast<std::size_t>(open_.back())].t1 = process_cpu_ms();
    open_.pop_back();
  }

  void set_tick(std::uint32_t tick) { tick_ = tick; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tick_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
