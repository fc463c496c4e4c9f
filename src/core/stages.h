// The voting round as an explicit stage pipeline.
//
// Every §4 algorithm is a composition of the same ordered steps; here each
// step is one VoteStage object and a round is one pass of a VoteContext
// through the fixed chain
//
//   quorum → exclusion → clustering → agreement → elimination
//          → weighting → collation → majority → history
//
// StagePipeline::Compile lowers an EngineConfig into that chain exactly
// once per engine: per-stage constants (the quorum count, the mirrored
// clustering threshold, ...) are resolved at compile time, and the round
// hot path only threads the context through.  The chain is immutable and
// stateless across rounds, so engine copies share one compiled pipeline.
//
// StageObserver is the extension seam: tracing, metrics and debugging
// attach from the outside (VotingEngine::set_observer) without touching
// the stages themselves.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/grouping.h"
#include "core/config.h"
#include "core/history.h"
#include "core/kernels/kernels.h"
#include "core/types.h"
#include "util/status.h"

namespace avoc::core {

struct RoundColumns;  // core/vote_sink.h
struct RoundScalars;  // core/vote_sink.h

/// The nine stage names in execution order — the contract between
/// StagePipeline::Compile and everything that keys per-stage data (the
/// stage trace renderer, the metrics observer, the tests).
inline constexpr std::array<std::string_view, 9> kStageNames = {
    "quorum",     "exclusion", "clustering",
    "agreement",  "elimination", "weighting",
    "collation",  "majority",  "history"};

/// One round's scratch state, threaded through the stage chain.  Owned by
/// the engine and reused across rounds (Begin resets everything), so the
/// hot path performs no heap allocations once warmed up — clustering
/// included; tests/core_alloc_test.cpp pins this at zero per round.
struct VoteContext {
  // --- round inputs (set by Begin) -----------------------------------------
  const EngineConfig* config = nullptr;
  HistoryLedger* ledger = nullptr;
  size_t module_count = 0;
  /// Last accepted output before this round (MNN tie-break, clustering
  /// winner selection, revert-last).
  std::optional<double> previous_output;

  // --- presence (set by Begin) ---------------------------------------------
  // Masks are flat 0/1 byte columns (not std::vector<bool>): the voting
  // kernels read and write them with contiguous vector loads/stores.
  std::vector<size_t> present_index;   ///< module index of each candidate
  std::vector<double> present_values;  ///< value of each candidate
  std::vector<uint8_t> present;        ///< per-module submitted-a-reading mask
  size_t present_count = 0;

  // --- exclusion -----------------------------------------------------------
  std::vector<uint8_t> excluded_present;  ///< per present candidate
  std::vector<size_t> included_index;  ///< module index per included candidate
  std::vector<double> included_values;

  // --- clustering ----------------------------------------------------------
  bool used_clustering = false;
  std::vector<uint8_t> in_winning_cluster;  ///< per included candidate

  // --- agreement / elimination / weighting ---------------------------------
  std::vector<double> scores;                ///< per included candidate
  std::vector<uint8_t> eliminated_included;  ///< per included candidate
  std::vector<double> weights;               ///< per included candidate
  double weight_sum = 0.0;

  // --- collation / majority ------------------------------------------------
  std::optional<double> output;
  bool had_majority = true;

  // --- reusable stage scratch ----------------------------------------------
  /// Per-module agreement-with-output column of the history update.
  std::vector<double> output_agreement;
  /// Sort buffer of the majority check's largest-group scan.
  std::vector<double> majority_scratch;
  /// Kernel scratch (see core/kernels/kernels.h), reused across rounds so
  /// the stage bodies stay allocation-free once warmed up.
  kernels::AgreementScratch agreement_scratch;
  kernels::ExclusionScratch exclusion_scratch;
  kernels::WeightedMeanScratch mean_scratch;
  /// Sorted order and runs of the clustering step's threshold linkage.
  cluster::LinkageScratch clustering_scratch;

  // --- fault short-circuit -------------------------------------------------
  /// Engaged when a fault policy fired; the remaining stages are skipped
  /// and the engine emits a fault result with this outcome.
  std::optional<RoundOutcome> fault;
  Status fault_status;

  /// Resets the context for a new round and gathers the present candidates.
  void Begin(const Round& round, const EngineConfig& engine_config,
             HistoryLedger& engine_ledger, std::optional<double> previous);

  /// Zero-copy Begin: the round arrives as contiguous values plus a
  /// present-bitmask (data::RoundTable::View), no Round vector involved.
  void Begin(RoundSpan round, const EngineConfig& engine_config,
             HistoryLedger& engine_ledger, std::optional<double> previous);

  /// Fully-populated Begin: every module present.
  void Begin(std::span<const double> values, const EngineConfig& engine_config,
             HistoryLedger& engine_ledger, std::optional<double> previous);

  bool faulted() const { return fault.has_value(); }

  /// Ends the round with a fault outcome (quorum / majority policies).
  void Fault(RoundOutcome outcome, Status status = Status::Ok());

  /// Runs the clustering step over the included candidates and keeps only
  /// the winning group.  Shared by the clustering stage and the weighting
  /// stage's zero-weight fallback.
  Status ApplyClustering(const cluster::GroupingOptions& options);

 private:
  /// Shared reset of everything but the presence scan.
  void BeginCommon(size_t modules, const EngineConfig& engine_config,
                   HistoryLedger& engine_ledger,
                   std::optional<double> previous);
};

/// One step of the voting round.  Stages are immutable after compilation
/// and hold no per-round state, so a compiled chain is safe to share
/// between engine copies and across threads (each engine brings its own
/// context and ledger).
class VoteStage {
 public:
  virtual ~VoteStage() = default;

  /// Stable lower-case stage name ("quorum", "exclusion", ...).
  virtual std::string_view name() const = 0;

  /// Advances the context.  Non-OK only on hard errors (these surface as
  /// a non-OK CastVote result); policy outcomes go through context.Fault.
  virtual Status Run(VoteContext& context) const = 0;
};

/// Observation seam for tracing/metrics.  Hooks are no-ops by default;
/// implementations must not mutate engine state.
class StageObserver {
 public:
  virtual ~StageObserver() = default;

  /// Before the first stage of a round (context holds the presence scan).
  virtual void OnRoundBegin(size_t /*round_index*/,
                            const VoteContext& /*context*/) {}

  /// After each stage that ran.  Stages skipped by a fault short-circuit
  /// are not reported.
  virtual void OnStageDone(std::string_view /*stage*/,
                           const VoteContext& /*context*/) {}

  /// With the committed sink columns and scalars, before CastVote
  /// returns.  This is the allocation-free hook: it fires identically on
  /// the legacy and columnar result paths and hands over the same flat
  /// columns the sink received (valid until the sink's next BeginRound).
  virtual void OnRoundCommitted(size_t /*round_index*/,
                                const RoundColumns& /*columns*/,
                                const RoundScalars& /*scalars*/) {}

  /// With the assembled result, before CastVote returns.  Fires on both
  /// result paths, but materializing the VoteResult costs one set of
  /// per-round allocations — hot-path observers should override
  /// wants_vote_result() to false and use OnRoundCommitted instead.
  virtual void OnRoundEnd(size_t /*round_index*/,
                          const VoteResult& /*result*/) {}

  /// Whether the engine should materialize a VoteResult for OnRoundEnd.
  virtual bool wants_vote_result() const { return true; }

  /// Inline gate the engine reads once per round (before OnRoundBegin)
  /// to decide whether the per-round tracing hooks — OnRoundBegin and the
  /// nine OnStageDone calls — are dispatched at all.  A sampling observer
  /// clears the flag from OnRoundCommitted for the rounds it does not
  /// time, shrinking an untimed round to a single virtual call; the
  /// committed/end hooks always fire, so counting stays exact.
  bool stage_hooks_enabled() const { return stage_hooks_enabled_; }

 protected:
  /// Derived observers may toggle this between rounds (i.e. from
  /// OnRoundCommitted); see stage_hooks_enabled.
  bool stage_hooks_enabled_ = true;
};

/// One observed stage transition, as recorded by StageTraceObserver.
struct StageTraceEntry {
  std::string stage;
  size_t candidates = 0;  ///< included candidates after the stage
  double weight_sum = 0.0;
  bool used_clustering = false;
  bool faulted = false;
};

/// Ready-made observer that records one StageTraceEntry per stage of the
/// most recent round — the substrate of core::FormatStageTrace and a
/// template for richer metrics observers.
class StageTraceObserver : public StageObserver {
 public:
  void OnRoundBegin(size_t round_index, const VoteContext& context) override;
  void OnStageDone(std::string_view stage,
                   const VoteContext& context) override;

  size_t round_index() const { return round_index_; }
  const std::vector<StageTraceEntry>& entries() const { return entries_; }

 private:
  size_t round_index_ = 0;
  std::vector<StageTraceEntry> entries_;
};

/// The fully-resolved per-stage constants of one compiled pipeline — what
/// Compile lowers an EngineConfig into.  The virtual stage objects and
/// the non-virtual StagePipeline::RunRound batch path both execute the
/// *same* stage bodies from this plan, so the two paths cannot diverge.
struct RoundPlan {
  size_t module_count = 0;
  size_t quorum_required = 0;
  NoQuorumPolicy on_no_quorum = NoQuorumPolicy::kEmitNothing;
  ExclusionParams exclusion;
  ClusteringMode clustering = ClusteringMode::kOff;
  cluster::GroupingOptions grouping;
  AgreementParams agreement;
  bool module_elimination = false;
  double elimination_margin = 0.0;
  RoundWeighting weighting = RoundWeighting::kUniform;
  Collation collation = Collation::kWeightedAverage;
  NoMajorityPolicy on_no_majority = NoMajorityPolicy::kAccept;
};

/// The compiled, immutable stage chain for one EngineConfig.
class StagePipeline {
 public:
  using Ptr = std::shared_ptr<const StagePipeline>;

  /// Lowers `config` (assumed validated) for a `module_count`-ary round
  /// into the fixed nine-stage chain (and the equivalent RoundPlan).
  static Ptr Compile(size_t module_count, const EngineConfig& config);

  std::span<const std::unique_ptr<VoteStage>> stages() const {
    return stages_;
  }
  size_t size() const { return stages_.size(); }

  const RoundPlan& plan() const { return plan_; }

  /// Runs one round through the compiled plan without virtual dispatch or
  /// per-stage observer boundaries — the batch hot path.  Bit-identical
  /// to threading the context through stages() (both call the same stage
  /// bodies); engines pick this path when no stage hooks are attached.
  Status RunRound(VoteContext& context) const;

  /// Stage names in execution order.
  std::vector<std::string_view> StageNames() const;

 private:
  StagePipeline() = default;

  std::vector<std::unique_ptr<VoteStage>> stages_;
  RoundPlan plan_;
};

}  // namespace avoc::core
