#include "runtime/nodes.h"

#include <algorithm>

#include "core/batch.h"
#include "util/log.h"

namespace avoc::runtime {

HubNode::HubNode(size_t module_count, std::mutex& group_mutex,
                 HubTelemetry telemetry)
    : module_count_(module_count),
      group_mutex_(group_mutex),
      telemetry_(telemetry) {}

BatchIngestStats HubNode::Ingest(std::span<const ReadingMessage> readings,
                                 ClosedRounds& closed) {
  BatchIngestStats stats;
  const size_t closed_before = closed.rounds.size();
  for (const ReadingMessage& message : readings) {
    if (message.module >= module_count_) {
      ++stats.rejected;
      continue;
    }
    if (closed_.count(message.round)) {
      ++stats.late;
      if (telemetry_.late_readings != nullptr) {
        telemetry_.late_readings->Increment();
      }
      continue;
    }
    ++stats.accepted;
    auto it = pending_.try_emplace(message.round).first;
    core::Round& pending = it->second;
    if (pending.empty()) pending.resize(module_count_);
    pending[message.module] = message.value;
    const bool complete =
        std::all_of(pending.begin(), pending.end(),
                    [](const core::Reading& r) { return r.has_value(); });
    if (!complete) continue;
    core::Round complete_round = std::move(pending);
    pending_.erase(it);
    CloseRound(message.round, std::move(complete_round), closed);
  }
  if (telemetry_.readings != nullptr && stats.accepted > 0) {
    telemetry_.readings->Add(static_cast<uint64_t>(stats.accepted));
  }
  SetOpenRoundsGauge();
  stats.rounds_closed = closed.rounds.size() - closed_before;
  return stats;
}

void HubNode::Close(size_t round, ClosedRounds& closed) {
  if (closed_.count(round)) return;
  core::Round readings;
  auto it = pending_.find(round);
  if (it == pending_.end()) {
    readings.resize(module_count_);
  } else {
    readings = std::move(it->second);
    pending_.erase(it);
  }
  CloseRound(round, std::move(readings), closed);
}

void HubNode::CloseRound(size_t round, core::Round readings,
                         ClosedRounds& closed) {
  (void)closed.table.AppendRound(std::move(readings));
  closed.rounds.push_back(round);
  closed_.insert(round);
  if (telemetry_.rounds_closed != nullptr) {
    telemetry_.rounds_closed->Increment();
  }
  SetOpenRoundsGauge();
  if (telemetry_.last_closed_round != nullptr) {
    telemetry_.last_closed_round->Set(static_cast<double>(round));
  }
}

void HubNode::SetOpenRoundsGauge() {
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(pending_.size()));
  }
}

size_t HubNode::open_rounds() const {
  std::lock_guard<std::mutex> lock(group_mutex_);
  return pending_.size();
}

HubNode::State HubNode::ExportState() const {
  State state;
  state.pending.reserve(pending_.size());
  for (const auto& [round, readings] : pending_) {
    state.pending.emplace_back(static_cast<uint64_t>(round), readings);
  }
  state.closed_rounds.assign(closed_.begin(), closed_.end());
  return state;
}

void HubNode::RestoreState(const State& state) {
  pending_.clear();
  closed_.clear();
  for (const auto& [round, readings] : state.pending) {
    core::Round copy = readings;
    copy.resize(module_count_);
    pending_[static_cast<size_t>(round)] = std::move(copy);
  }
  for (const uint64_t round : state.closed_rounds) {
    closed_.insert(static_cast<size_t>(round));
  }
  SetOpenRoundsGauge();
}

VoterNode::VoterNode(core::VotingEngine engine, std::mutex& group_mutex,
                     std::string group, storage::HistoryBackend* store)
    : engine_(std::move(engine)),
      group_mutex_(group_mutex),
      group_(std::move(group)),
      store_(store) {
  if (store_ == nullptr) return;
  // Restore learned history from the datastore, if present.
  auto snapshot = store_->Get(group_);
  if (snapshot.ok() && snapshot->records.size() == engine_.module_count()) {
    const Status restored =
        engine_.RestoreHistory(snapshot->records, snapshot->rounds);
    if (!restored.ok()) {
      AVOC_LOG_WARN("voter '%s': history restore failed: %s", group_.c_str(),
                    restored.ToString().c_str());
    }
  }
}

Result<core::TraceView> VoterNode::Vote(const data::RoundTable& table) {
  // One columnar engine call and one history persist for the whole batch.
  batch_trace_.Reset(engine_.module_count());
  batch_trace_.ReserveRounds(table.round_count());
  const Status status = core::RunOverTable(engine_, table, batch_trace_);
  if (!status.ok()) {
    last_status_ = status;
    AVOC_LOG_ERROR("voter '%s': batch of %zu rounds failed: %s",
                   group_.c_str(), table.round_count(),
                   status.ToString().c_str());
    return status;
  }
  PersistHistory();
  return batch_trace_.view();
}

void VoterNode::PersistHistory() {
  if (store_ == nullptr) {
    last_status_ = Status::Ok();
    return;
  }
  HistorySnapshot snapshot;
  const auto records = engine_.history().records();
  snapshot.records.assign(records.begin(), records.end());
  snapshot.rounds = engine_.history().round_count();
  last_status_ = store_->Put(group_, snapshot);
}

Status VoterNode::last_status() const {
  std::lock_guard<std::mutex> lock(group_mutex_);
  return last_status_;
}

core::VotingEngine::State VoterNode::ExportEngineState() const {
  return engine_.ExportState();
}

Status VoterNode::RestoreEngineState(const core::VotingEngine::State& state) {
  AVOC_RETURN_IF_ERROR(engine_.RestoreState(state));
  PersistHistory();
  return last_status_;
}

SinkNode::SinkNode(std::mutex& group_mutex, SinkTelemetry telemetry,
                   storage::TraceBackend* trace_store, std::string group)
    : group_mutex_(group_mutex),
      telemetry_(telemetry),
      trace_store_(trace_store),
      group_(std::move(group)) {}

void SinkNode::Append(const core::TraceView& trace,
                      std::span<const size_t> rounds) {
  if (rounds.empty()) return;
  for (size_t i = 0; i < rounds.size(); ++i) {
    trace_.AppendFrom(trace, i);
    rounds_.push_back(rounds[i]);
  }
  const size_t last_round = *std::max_element(rounds.begin(), rounds.end());
  if (telemetry_.outputs != nullptr) {
    telemetry_.outputs->Add(static_cast<uint64_t>(rounds.size()));
  }
  if (telemetry_.last_round != nullptr) {
    telemetry_.last_round->Set(static_cast<double>(last_round));
  }
  if (telemetry_.lag_rounds != nullptr) {
    // Round numbers start at 0, so last_round + 1 rounds were dispatched
    // up to here; anything this sink has not recorded was lost upstream.
    const double dispatched = static_cast<double>(last_round) + 1.0;
    telemetry_.lag_rounds->Set(
        std::max(0.0, dispatched - static_cast<double>(rounds_.size())));
  }
  if (trace_store_ == nullptr) return;
  // Build the points from the rows just stored, not the input: what the
  // backend holds is then bit-identical to this trace by construction.
  std::vector<storage::TracePoint> points;
  points.reserve(rounds.size());
  for (size_t i = rounds_.size() - rounds.size(); i < rounds_.size(); ++i) {
    const std::optional<double> value = trace_.output(i);
    points.push_back(storage::TracePoint{rounds_[i], value.value_or(0.0),
                                         value.has_value()});
  }
  const Status persisted = trace_store_->AppendTrace(group_, points);
  if (!persisted.ok()) {
    AVOC_LOG_WARN("sink '%s': trace persist failed: %s", group_.c_str(),
                  persisted.ToString().c_str());
  }
}

std::vector<OutputMessage> SinkNode::MaterializeOutputs() const {
  std::vector<OutputMessage> out;
  out.reserve(rounds_.size());
  for (size_t i = 0; i < rounds_.size(); ++i) {
    out.push_back(OutputMessage{rounds_[i], trace_.MaterializeRound(i)});
  }
  return out;
}

std::vector<OutputMessage> SinkNode::outputs() const {
  std::lock_guard<std::mutex> lock(group_mutex_);
  return MaterializeOutputs();
}

size_t SinkNode::output_count() const {
  std::lock_guard<std::mutex> lock(group_mutex_);
  return rounds_.size();
}

std::optional<double> SinkNode::last_value() const {
  std::lock_guard<std::mutex> lock(group_mutex_);
  for (size_t i = rounds_.size(); i-- > 0;) {
    const auto value = trace_.output(i);
    if (value.has_value()) return value;
  }
  return std::nullopt;
}

}  // namespace avoc::runtime
