// VDX document storage: files on disk plus an in-memory named registry.
//
// The paper's vision is a "compatible voter service running on an edge
// node" receiving voting definitions; this registry holds them by name,
// and vdx::MakeVoter (factory.h) turns one into the engine that
// VoterGroupManager::AddGroupFromSpec installs as a group.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vdx/spec.h"

namespace avoc::vdx {

/// Reads and parses one VDX JSON file.
Result<Spec> ReadSpecFile(const std::string& path);

/// Writes a spec as pretty JSON.
Status WriteSpecFile(const std::string& path, const Spec& spec);

/// Named spec collection.
class SpecRegistry {
 public:
  /// Registers (or replaces) a spec under `name`.
  void Register(std::string name, Spec spec);

  /// Registers a spec under its own algorithm_name.
  void Register(Spec spec);

  Result<Spec> Get(std::string_view name) const;
  bool contains(std::string_view name) const;
  size_t size() const { return specs_.size(); }

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Loads every `*.json` / `*.vdx` file in `directory`, registering each
  /// spec under its file stem.  Returns the number loaded; malformed files
  /// fail the whole call.
  Result<size_t> LoadDirectory(const std::string& directory);

  /// Registry pre-populated with the seven paper presets.
  static SpecRegistry WithBuiltins();

 private:
  std::map<std::string, Spec, std::less<>> specs_;
};

}  // namespace avoc::vdx
