#include "runtime/group_runner.h"

#include "util/strings.h"

namespace avoc::runtime {

GroupRunner::GroupRunner(std::vector<Generator> generators,
                         core::VotingEngine engine, Options options)
    : options_(std::move(options)), generators_(std::move(generators)) {
  HubTelemetry hub_telemetry;
  SinkTelemetry sink_telemetry;
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    const std::string& g = options_.group;
    auto counter = [&](std::string_view family) {
      return &reg.GetCounter(obs::LabeledName(family, "group", g));
    };
    auto gauge = [&](std::string_view family) {
      return &reg.GetGauge(obs::LabeledName(family, "group", g));
    };
    hub_telemetry.readings = counter("avoc_hub_readings_total");
    hub_telemetry.late_readings = counter("avoc_hub_late_readings_total");
    hub_telemetry.rounds_closed = counter("avoc_hub_rounds_closed_total");
    hub_telemetry.open_rounds = gauge("avoc_hub_open_rounds");
    hub_telemetry.last_closed_round = gauge("avoc_hub_last_closed_round");
    sink_telemetry.outputs = counter("avoc_sink_outputs_total");
    sink_telemetry.last_round = gauge("avoc_sink_last_round");
    sink_telemetry.lag_rounds = gauge("avoc_sink_lag_rounds");

    obs::MetricsObserverOptions observer_options;
    observer_options.scope = options_.group;
    observer_options.scope_label = "group";
    // Live rounds tick at millisecond cadence; flushing every round keeps
    // scrapes exact for negligible cost.
    observer_options.flush_every = 1;
    observer_options.tracer = options_.tracer;
    observer_ = std::make_unique<obs::MetricsObserver>(
        reg, std::move(observer_options));
    // Every vote runs under the group lock, satisfying the observer's
    // one-scope threading contract.
    engine.set_observer(observer_.get());
  }
  const size_t modules = engine.module_count();
  hub_.reset(new HubNode(modules, mutex_, hub_telemetry));
  voter_.reset(new VoterNode(std::move(engine), mutex_, options_.group,
                             options_.store));
  sink_.reset(new SinkNode(mutex_, sink_telemetry, options_.trace_store,
                           options_.group));
  closed_.table = data::RoundTable::WithModuleCount(modules);
}

Result<std::unique_ptr<GroupRunner>> GroupRunner::Create(
    core::VotingEngine engine, Options options) {
  if (options.group.empty()) {
    return InvalidArgumentError("group name must not be empty");
  }
  return std::unique_ptr<GroupRunner>(
      new GroupRunner({}, std::move(engine), std::move(options)));
}

Result<std::unique_ptr<GroupRunner>> GroupRunner::WithGenerators(
    std::vector<Generator> generators, core::VotingEngine engine,
    Options options) {
  if (generators.size() != engine.module_count()) {
    return InvalidArgumentError("generator/engine module count mismatch");
  }
  if (generators.empty()) {
    return InvalidArgumentError("pipeline needs at least one sensor");
  }
  if (options.group.empty()) {
    return InvalidArgumentError("group name must not be empty");
  }
  return std::unique_ptr<GroupRunner>(new GroupRunner(
      std::move(generators), std::move(engine), std::move(options)));
}

Result<std::unique_ptr<GroupRunner>> GroupRunner::FromTable(
    const data::RoundTable& table, core::VotingEngine engine,
    Options options) {
  // Copy the table into a shared replay buffer the generators index into.
  auto shared = std::make_shared<data::RoundTable>(table);
  std::vector<Generator> generators;
  generators.reserve(table.module_count());
  for (size_t m = 0; m < table.module_count(); ++m) {
    generators.push_back(
        [shared, m](size_t round) -> std::optional<double> {
          if (round >= shared->round_count()) return std::nullopt;
          return shared->At(round, m);
        });
  }
  return WithGenerators(std::move(generators), std::move(engine),
                        std::move(options));
}

BatchIngestStats GroupRunner::Ingest(std::span<const ReadingMessage> readings,
                                     std::optional<size_t> close_round) {
  std::lock_guard<std::mutex> lock(mutex_);
  const BatchIngestStats stats = hub_->Ingest(readings, closed_);
  if (close_round.has_value()) hub_->Close(*close_round, closed_);
  if (!closed_.rounds.empty()) {
    const Result<core::TraceView> trace = voter_->Vote(closed_.table);
    if (trace.ok()) sink_->Append(*trace, closed_.rounds);
    closed_.rounds.clear();
    closed_.table.Clear();
  }
  return stats;
}

void GroupRunner::RunRound(size_t round) {
  std::vector<ReadingMessage> readings;
  readings.reserve(generators_.size());
  for (size_t m = 0; m < generators_.size(); ++m) {
    if (const std::optional<double> value = generators_[m](round)) {
      readings.push_back(ReadingMessage{m, round, *value});
    }
  }
  // Timeout stand-in: whatever has not arrived by now is missing.
  Ingest(readings, round);
}

std::vector<std::thread> GroupRunner::EmitAsync(size_t round) {
  std::vector<std::thread> workers;
  workers.reserve(generators_.size());
  for (size_t m = 0; m < generators_.size(); ++m) {
    workers.emplace_back([this, m, round] {
      if (const std::optional<double> value = generators_[m](round)) {
        const ReadingMessage reading{m, round, *value};
        Ingest({&reading, 1});
      }
    });
  }
  return workers;
}

Status GroupRunner::Submit(size_t module, size_t round, double value) {
  if (module >= hub_->module_count()) {
    return OutOfRangeError("module index out of range for group '" +
                           options_.group + "'");
  }
  const ReadingMessage reading{module, round, value};
  Ingest({&reading, 1});
  return Status::Ok();
}

BatchIngestStats GroupRunner::SubmitBatch(
    std::span<const ReadingMessage> readings) {
  if (options_.tracer == nullptr) return Ingest(readings);
  // Parent the engine span to whatever span is current on this thread
  // (the server verb span when reached over the wire).
  obs::SpanContext parent;
  if (const obs::CurrentSpan current = obs::CurrentTraceSpan();
      current.tracer == options_.tracer) {
    parent = current.context;
  }
  obs::ScopedSpan span(options_.tracer, obs::SpanKind::kEngine,
                       "engine.batch", parent);
  const BatchIngestStats stats = Ingest(readings);
  if (span.active()) {
    span.SetDetailF("group=%s readings=%zu rounds=%zu",
                    options_.group.c_str(), readings.size(),
                    stats.rounds_closed);
  }
  return stats;
}

void GroupRunner::FlushRound(size_t round) { Ingest({}, round); }

GroupRunner::State GroupRunner::ExportState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  State state;
  state.engine = voter_->ExportEngineState();
  state.hub = hub_->ExportState();
  state.outputs = sink_->MaterializeOutputs();
  return state;
}

Status GroupRunner::RestoreState(const State& state) {
  // Migrated rows enter the sink through its one append path, as if they
  // had just been voted.
  core::BatchTrace restored(module_count());
  std::vector<size_t> rounds;
  rounds.reserve(state.outputs.size());
  for (const OutputMessage& output : state.outputs) {
    restored.Append(output.result);
    rounds.push_back(output.round);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  AVOC_RETURN_IF_ERROR(voter_->RestoreEngineState(state.engine));
  hub_->RestoreState(state.hub);
  sink_->Append(restored.view(), rounds);
  return Status::Ok();
}

}  // namespace avoc::runtime
