// Middleware nodes: hub → voter → sink (Fig. 1's topology).
//
// A GroupRunner (group_runner.h) owns one of each per voter group and
// calls them directly, in order, under its group lock: the HubNode
// assembles readings into rounds and hands back the ones it closed, the
// VoterNode votes them in one columnar engine pass, and the SinkNode
// appends the fused rows.  The hub plays the VINT hub's role: a round
// closes when every registered module reported or when it is flushed
// (timeout) — missing modules become missing values, feeding the §7
// missing-value fault scenario.
//
// Each node's mutators are private to GroupRunner; the public surface is
// the read side, which takes the same group lock and is thread-safe.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/trace.h"
#include "data/round_table.h"
#include "obs/metrics.h"
#include "runtime/datastore.h"
#include "util/status.h"

namespace avoc::runtime {

/// Optional hub instrumentation: null pointers disable each signal.  The
/// metric objects live in an obs::Registry and are thread-safe, so hubs
/// of different groups may share them (labels tell them apart).
struct HubTelemetry {
  obs::Counter* readings = nullptr;       ///< readings accepted
  obs::Counter* late_readings = nullptr;  ///< dropped against a closed round
  obs::Counter* rounds_closed = nullptr;  ///< rounds handed to the voter
  obs::Gauge* open_rounds = nullptr;      ///< pending-round queue depth
  obs::Gauge* last_closed_round = nullptr;
};

/// Optional sink instrumentation.
struct SinkTelemetry {
  obs::Counter* outputs = nullptr;  ///< fused outputs recorded
  obs::Gauge* last_round = nullptr;
  /// Rounds that closed upstream but never produced an output here
  /// (an engine error drops its whole batch before the sink).
  obs::Gauge* lag_rounds = nullptr;
};

/// A single sensor reading addressed to a hub.
struct ReadingMessage {
  size_t module = 0;  ///< module index within the voter group
  size_t round = 0;
  double value = 0.0;
};

/// The voter's fused output for one round.
struct OutputMessage {
  size_t round = 0;
  core::VoteResult result;
};

/// What one ingest call did with its readings.
struct BatchIngestStats {
  size_t accepted = 0;       ///< readings stored into open rounds
  size_t late = 0;           ///< dropped against already-closed rounds
  size_t rejected = 0;       ///< dropped for an out-of-range module index
  size_t rounds_closed = 0;  ///< rounds completed (and voted) by this batch
};

/// Rounds closed by the hub, as a columnar table: row i of `table` is
/// round `rounds[i]`.
struct ClosedRounds {
  std::vector<size_t> rounds;
  data::RoundTable table;
};

/// Assembles readings into rounds.
class HubNode {
 public:
  HubNode(const HubNode&) = delete;
  HubNode& operator=(const HubNode&) = delete;

  size_t module_count() const { return module_count_; }

  /// Rounds currently open (received some but not all readings).
  size_t open_rounds() const;

  /// Assembly state for migrating a live hub between nodes: partially
  /// filled rounds plus the closed-round set (the late-reading filter).
  struct State {
    std::vector<std::pair<uint64_t, core::Round>> pending;
    std::vector<uint64_t> closed_rounds;
  };

 private:
  friend class GroupRunner;

  HubNode(size_t module_count, std::mutex& group_mutex,
          HubTelemetry telemetry);

  // The rest runs under the group lock.

  /// Stores readings into open rounds and appends every round they
  /// complete to `closed`.  Readings for closed rounds or unknown modules
  /// are counted, not fatal.
  BatchIngestStats Ingest(std::span<const ReadingMessage> readings,
                          ClosedRounds& closed);

  /// Closes `round` with whatever arrived (absent modules are missing
  /// values) and appends it to `closed`.  No-op when already closed.
  void Close(size_t round, ClosedRounds& closed);

  State ExportState() const;
  void RestoreState(const State& state);

  /// Moves `readings` into `closed` as round `round` and updates the
  /// close-side gauges.
  void CloseRound(size_t round, core::Round readings, ClosedRounds& closed);

  void SetOpenRoundsGauge();

  size_t module_count_;
  std::mutex& group_mutex_;
  HubTelemetry telemetry_;
  std::map<size_t, core::Round> pending_;  // round -> partial readings
  std::set<size_t> closed_;                // rounds already handed on
};

/// Runs the voting engine over closed rounds; optionally persists the
/// history ledger to a HistoryBackend after every vote (the datastore
/// round-trip of the paper's latency notes) and restores it on start.
class VoterNode {
 public:
  VoterNode(const VoterNode&) = delete;
  VoterNode& operator=(const VoterNode&) = delete;

  const core::VotingEngine& engine() const { return engine_; }

  /// Status of the most recent vote (persistence failures surface here).
  Status last_status() const;

 private:
  friend class GroupRunner;

  /// Restores the history stored under `group` when `store` holds a
  /// snapshot of matching arity; persistence is off when store is null.
  VoterNode(core::VotingEngine engine, std::mutex& group_mutex,
            std::string group, storage::HistoryBackend* store);

  // The rest runs under the group lock.

  /// Votes every round of `table` in one columnar engine pass, then
  /// persists the history.  The view holds one row per round and stays
  /// valid until the next Vote.  On an engine error the whole batch is
  /// dropped and the error also lands in last_status().
  Result<core::TraceView> Vote(const data::RoundTable& table);

  core::VotingEngine::State ExportEngineState() const;
  /// Installs a migrated engine state and persists it to the store.
  Status RestoreEngineState(const core::VotingEngine::State& state);

  void PersistHistory();

  core::VotingEngine engine_;
  std::mutex& group_mutex_;
  std::string group_;
  storage::HistoryBackend* store_;
  Status last_status_;
  core::BatchTrace batch_trace_;  ///< scratch reused across votes
};

/// Records outputs (the LCD display / downstream consumer stand-in).
/// Storage is columnar: rows land in a BatchTrace (one flat column per
/// field) plus a round-number column, so a long-running sink holds no
/// per-round heap objects; outputs() materializes messages on demand for
/// consumers that still speak VoteResult.
class SinkNode {
 public:
  SinkNode(const SinkNode&) = delete;
  SinkNode& operator=(const SinkNode&) = delete;

  /// Outputs received so far, in arrival order (materialized per call;
  /// prefer WithTrace() for bulk reads).
  std::vector<OutputMessage> outputs() const;
  size_t output_count() const;

  /// Most recent fused value, if any round voted successfully.
  std::optional<double> last_value() const;

  /// Columnar read access under the group lock: calls `fn(trace, rounds)`
  /// where rounds[i] is the round number of trace row i.
  template <typename Fn>
  void WithTrace(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(group_mutex_);
    fn(static_cast<const core::BatchTrace&>(trace_),
       static_cast<const std::vector<size_t>&>(rounds_));
  }

 private:
  friend class GroupRunner;

  /// When `trace_store` is set, every appended row is also persisted as a
  /// storage::TracePoint under `group` — the durable feed behind the
  /// QUERY_RANGE wire verb.  Persist errors are logged, never fatal: the
  /// in-memory trace is the source of truth for the live process.
  SinkNode(std::mutex& group_mutex, SinkTelemetry telemetry,
           storage::TraceBackend* trace_store, std::string group);

  // The rest runs under the group lock.

  /// Appends row i of `trace` as round rounds[i], then persists the rows.
  void Append(const core::TraceView& trace, std::span<const size_t> rounds);

  std::vector<OutputMessage> MaterializeOutputs() const;

  std::mutex& group_mutex_;
  SinkTelemetry telemetry_;
  storage::TraceBackend* trace_store_;
  std::string group_;
  core::BatchTrace trace_;
  std::vector<size_t> rounds_;  ///< round number of each trace row
};

}  // namespace avoc::runtime
