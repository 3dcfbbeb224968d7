// Records expert demonstrations with the CO planner (or loads them from the
// dataset cache, through sim::get_or_record_dataset), trains the IL network
// (section IV-A architecture, eqs. 2-3 objective) and reports the learning
// curve plus the dataset composition — the workflow behind the paper's
// "5171 samples, 300 epochs" setup, extended with cross-family training
// curricula.
//
// Usage: train_policy [--curriculum all|canonical|g1,g2,...] [--bev N]
//                     [epochs] [expert-episodes]
// Caches il_dataset-<fp>.bin / il_policy-<fp>.bin in the working directory,
// keyed by a fingerprint of the curriculum + recorder + network spec, so
// differently-trained policies never clobber each other. The policy cache
// is retrained and overwritten on every run.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "il/action.hpp"
#include "il/trainer.hpp"
#include "mission/mission.hpp"
#include "sim/curriculum.hpp"
#include "sim/policy_store.hpp"

namespace {

int parse_positive_int(const char* arg, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (errno != 0 || end == arg || *end != '\0' || v < 1 ||
      v > 1000000000L) {
    std::fprintf(stderr, "train_policy: bad %s \"%s\"\n", what, arg);
    std::exit(2);
  }
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  // Let curricula reference mission templates ("mission:quiet_lot" cells):
  // the expander turns each mission leg into a recordable static scenario.
  mission::install_curriculum_expander();

  sim::PolicyStoreOptions options = sim::default_policy_options();
  std::string curriculum_spec = "canonical";
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const bool is_curriculum = std::strcmp(argv[i], "--curriculum") == 0;
    const bool is_bev = std::strcmp(argv[i], "--bev") == 0;
    if (is_curriculum || is_bev) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "train_policy: missing value for %s\n", argv[i]);
        return 2;
      }
      if (is_curriculum)
        curriculum_spec = argv[++i];
      else
        options.policy.bev_size = parse_positive_int(argv[++i], "--bev size");
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: train_policy [--curriculum all|canonical|g1,g2,...] "
          "[--bev N] [epochs] [expert-episodes]\n"
          "  curriculum cells may also name mission templates, e.g. "
          "mission:quiet_lot\n");
      return 0;
    } else if (positional == 0) {
      options.train.epochs = parse_positive_int(argv[i], "epoch count");
      ++positional;
    } else if (positional == 1) {
      options.expert.episodes = parse_positive_int(argv[i], "episode count");
      ++positional;
    } else {
      std::fprintf(stderr, "train_policy: unexpected argument \"%s\"\n", argv[i]);
      return 2;
    }
  }

  try {
    options.expert.curriculum = sim::Curriculum::parse(curriculum_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_policy: %s\n", e.what());
    return 2;
  }

  std::printf("curriculum \"%s\" (%zu cells):\n",
              options.expert.curriculum.name.c_str(),
              options.expert.curriculum.size());
  const auto counts =
      options.expert.curriculum.episode_counts(options.expert.episodes);
  for (std::size_t i = 0; i < options.expert.curriculum.size(); ++i)
    std::printf("  %-28s weight %.1f -> %d episodes\n",
                options.expert.curriculum.entries[i].label().c_str(),
                options.expert.curriculum.entries[i].weight, counts[i]);

  // Load the demonstration dataset from its fingerprinted cache, or record
  // and cache it: the same step get_or_train_policy takes.
  const il::Dataset dataset = sim::get_or_record_dataset(options);

  // Dataset composition by scenario family (curriculum provenance).
  std::printf("\nsamples by scenario family:\n");
  for (const auto& [family, count] : dataset.family_histogram())
    std::printf("  %-20s %6zu (%4.1f%%)\n", family.c_str(), count,
                100.0 * static_cast<double>(count) /
                    static_cast<double>(dataset.size()));

  // Dataset composition (the paper reports forward/reverse counts).
  const auto hist = dataset.class_histogram(il::ActionDiscretizer::num_classes());
  std::printf("\nclass histogram (steer level x longitudinal bin):\n");
  for (int c = 0; c < il::ActionDiscretizer::num_classes(); ++c) {
    const auto cmd = il::ActionDiscretizer::to_command(c);
    std::printf("  class %2d  long=%d steer=%+.1f : %5zu (%4.1f%%)\n", c,
                il::ActionDiscretizer::long_bin(c), cmd.steer, hist[c],
                100.0 * static_cast<double>(hist[c]) /
                    static_cast<double>(dataset.size()));
  }

  // Train.
  il::IlPolicy policy(options.policy);
  std::printf("\ntraining %d epochs (batch %d, lr %.4f, %zu parameters)...\n",
              options.train.epochs, options.train.batch_size,
              options.train.learning_rate, policy.network().num_parameters());
  il::Trainer trainer(options.train);
  const il::TrainReport report =
      trainer.train(policy, dataset, [](const il::EpochStats& e) {
        std::printf("  epoch %3d: loss %.4f, train acc %.3f, val acc %.3f\n",
                    e.epoch, e.train_loss, e.train_accuracy, e.val_accuracy);
      });

  std::printf("\nfinal validation accuracy: %.3f (%zu train / %zu val samples)\n",
              report.final_val_accuracy, report.train_samples,
              report.val_samples);
  const std::string policy_path = sim::policy_cache_path(options);
  if (policy.save(policy_path))
    std::printf("saved policy to %s\n", policy_path.c_str());
  return 0;
}
