// VDX: the Voting Definition Specification (§6).
//
// A VDX document declaratively defines a voting scheme: quorum, exclusion,
// history algorithm, free-form parameters, collation, and whether the
// clustering bootstrap is enabled.  It is a superset of Bakken et al.'s
// VDL three-step model (quorum → exclusion → collation), extended with the
// history step, parameters, bootstrapping, categorical values, and — as
// §7 prospects — declarative fault-handling policies.
//
// The canonical serialisation is JSON, Listing 1 of the paper:
//
//   {
//     "algorithm_name": "AVOC",
//     "quorum": "UNTIL",
//     "quorum_percentage": 100,
//     "exclusion": "NONE",
//     "exclusion_threshold": 0,
//     "history": "HYBRID",
//     "params": { "error": 0.05, "soft_threshold": 2 },
//     "collation": "MEAN_NEAREST_NEIGHBOR",
//     "bootstrapping": true,
//   }
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "json/value.h"
#include "util/status.h"

namespace avoc::vdx {

/// VDL-inherited quorum modes.  For a round-based voter, COUNT/PERCENT
/// gate on the submitted candidate count, and UNTIL votes exactly like
/// PERCENT: the runtime's hub closes a round when every module reported
/// or when the round is flushed at its timeout, whatever the mode.
enum class QuorumMode { kAny, kCount, kPercent, kUntil };

enum class ExclusionKind { kNone, kStdDev, kMad };

/// The history algorithm families of §4.
enum class HistoryKind {
  kNone,               ///< stateless voting
  kStandard,           ///< history-based weighted average [17]
  kModuleElimination,  ///< + below-average modules zero-weighted [17]
  kSoftDynamicThreshold,  ///< graded agreement [11]
  kHybrid,             ///< ME + SDT + aggressive records [7]
};

enum class CollationKind {
  kWeightedAverage,
  kMeanNearestNeighbor,
  kWeightedMedian,
  kMajority,  ///< categorical only
};

enum class ValueKind { kNumeric, kCategorical };

/// Declarative fault handling (§7 extension).
enum class FaultAction { kAccept, kEmitNothing, kRevertLast, kRaise };

struct FaultPolicySpec {
  FaultAction on_no_quorum = FaultAction::kRevertLast;
  FaultAction on_no_majority = FaultAction::kAccept;
};

/// A parsed VDX document.
struct Spec {
  std::string algorithm_name;
  ValueKind value_type = ValueKind::kNumeric;

  QuorumMode quorum = QuorumMode::kPercent;
  /// Meaning depends on quorum: PERCENT/UNTIL → percentage [0,100];
  /// COUNT → absolute candidate count.
  double quorum_amount = 50.0;

  ExclusionKind exclusion = ExclusionKind::kNone;
  double exclusion_threshold = 0.0;

  HistoryKind history = HistoryKind::kStandard;

  /// Free-form numeric parameters ("error", "soft_threshold", "reward",
  /// "penalty", "missing_penalty", ...).  Unknown keys are preserved
  /// round-trip; the factory consumes the ones it understands.
  std::map<std::string, double> params;

  /// Non-numeric parameters ("threshold_scale": "RELATIVE"/"ABSOLUTE",
  /// "weighting": "HISTORY"/"AGREEMENT"/"UNIFORM"/"COMBINED").
  std::map<std::string, std::string> string_params;

  CollationKind collation = CollationKind::kWeightedAverage;

  /// Enables the clustering step as bootstrap/fallback (AVOC).
  bool bootstrapping = false;
  /// Runs the clustering step every round (clustering-only voting).  A
  /// VDX extension beyond the paper's listing; implied by
  /// algorithm_name == "COV" on parse for convenience.
  bool clustering_always = false;

  FaultPolicySpec fault_policy;

  /// Reads one numeric param with fallback.
  double ParamOr(std::string_view key, double fallback) const;
  /// Reads one string param with fallback.
  std::string StringParamOr(std::string_view key,
                            std::string_view fallback) const;

  /// Structural and capability validation: parameter ranges plus the §6
  /// categorical restrictions (no exclusion / no hybrid / no clustering /
  /// majority collation only).  `has_custom_distance` relaxes the
  /// categorical matrix per the paper's escape hatch.
  Status Validate(bool has_custom_distance = false) const;

  json::Value ToJson() const;
  static Result<Spec> FromJson(const json::Value& value);

  /// Parses a VDX JSON document (text form).
  static Result<Spec> Parse(std::string_view text);
  /// Pretty JSON serialisation.
  std::string Serialize() const;
};

// Enum <-> VDX token helpers (upper-snake tokens, e.g.
// "MEAN_NEAREST_NEIGHBOR"); parsing is case-insensitive.
std::string_view ToToken(QuorumMode mode);
std::string_view ToToken(ExclusionKind kind);
std::string_view ToToken(HistoryKind kind);
std::string_view ToToken(CollationKind kind);
std::string_view ToToken(ValueKind kind);
std::string_view ToToken(FaultAction action);
Result<QuorumMode> ParseQuorumMode(std::string_view token);
Result<ExclusionKind> ParseExclusionKind(std::string_view token);
Result<HistoryKind> ParseHistoryKind(std::string_view token);
Result<CollationKind> ParseCollationKind(std::string_view token);
Result<ValueKind> ParseValueKind(std::string_view token);
Result<FaultAction> ParseFaultAction(std::string_view token);

}  // namespace avoc::vdx
