#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/co_controller.hpp"
#include "core/controller.hpp"
#include "core/icoil_controller.hpp"
#include "core/il_controller.hpp"

namespace icoil::core {

/// Everything a registered method may consume when it builds a controller.
/// `policy` must outlive any controller (and factory) built from it; the
/// `icoil` pointer is an optional override consulted at build time (nullptr
/// means the spec's own defaults) and is copied into factories, so it only
/// needs to live through the registry call itself.
struct ControllerBuildArgs {
  const il::IlPolicy* policy = nullptr;  ///< required when spec needs_policy
  const IcoilConfig* icoil = nullptr;    ///< override for iCOIL-family specs
  vehicle::VehicleParams vehicle;
};

/// One registered driving method: a stable string key, the label printed in
/// tables/reports, a one-line description for --list-methods, and the build
/// function.
struct ControllerSpec {
  std::string key;           ///< registry key ("icoil", "co-fast", ...)
  std::string display_name;  ///< table/report label ("iCOIL", "CO (ref)")
  std::string description;   ///< one-liner for discovery listings
  bool needs_policy = false; ///< true when build() dereferences args.policy
  std::function<std::unique_ptr<Controller>(const ControllerBuildArgs&)> build;
};

/// Process-wide, string-keyed registry of driving methods — the controller
/// mirror of world::GeneratorRegistry. The built-in methods (icoil, il, co,
/// plus config-overridden variants) are registered on first access;
/// applications may `add` their own (or replace built-ins by reusing a key)
/// before evaluation starts. Registration must happen before concurrent
/// use; lookups are read-only afterwards and safe to share across worker
/// threads.
class ControllerRegistry {
 public:
  static ControllerRegistry& instance();

  /// Register `spec` under spec.key, replacing any previous entry.
  void add(ControllerSpec spec);

  /// Look up by key; nullptr when unknown.
  const ControllerSpec* find(const std::string& key) const;

  /// Look up by key; throws std::invalid_argument naming the known keys
  /// when unknown (the error every CLI surfaces verbatim).
  const ControllerSpec& at(const std::string& key) const;

  /// Registered keys in sorted order.
  std::vector<std::string> keys() const;

  std::size_t size() const { return specs_.size(); }

  /// Build one controller now. Throws std::invalid_argument for an unknown
  /// key or when the spec needs a policy and args.policy is null.
  std::unique_ptr<Controller> build(const std::string& key,
                                    ControllerBuildArgs args = {}) const;

  /// A ControllerFactory for the evaluator/session fan-outs: validates the
  /// key and policy requirement NOW (on the calling thread, so a misconfig
  /// fails fast instead of inside a worker) and copies the iCOIL override
  /// into the closure. args.policy must outlive the returned factory.
  ControllerFactory factory(const std::string& key,
                            ControllerBuildArgs args = {}) const;

 private:
  ControllerRegistry();  // seeds the built-in methods

  std::vector<ControllerSpec> specs_;
};

}  // namespace icoil::core
