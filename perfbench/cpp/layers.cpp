// Shared measurement code: gateway request shaping, trace read-back,
// metric reporting, and the offline per-layer passes of the traced run.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/batch.h"
#include "core/stages.h"
#include "obs/metrics.h"
#include "obs/stage_metrics.h"
#include "runtime/group_manager.h"
#include "runtime/group_router.h"
#include "runtime/multi_group.h"
#include "storage/engine.h"
#include "workloads.h"

namespace perfbench {

std::vector<Step> GatewaySteps(const data::RoundTable& table, size_t first,
                               size_t count) {
  std::vector<Step> steps;
  Step step;
  for (size_t r = first; r < first + count; ++r) {
    AppendRoundReadings(table, r, step.readings);
    if (RoundHasHoles(table, r)) {
      step.close = true;
      step.close_round = r;
      steps.push_back(std::move(step));
      step = Step{};
    }
  }
  if (!step.readings.empty()) steps.push_back(std::move(step));
  return steps;
}

Step BatchStep(const data::RoundTable& table, size_t first, size_t count) {
  Step step;
  step.readings.reserve(count * table.module_count());
  for (size_t r = first; r < first + count; ++r) {
    AppendRoundReadings(table, r, step.readings);
  }
  return step;
}

std::unique_ptr<obs::Tracer> MakeTracer(size_t expected_records) {
  obs::TracerOptions options;
  options.ring_count = 1;
  options.ring_capacity = std::max<size_t>(4096, 2 * expected_records);
  return std::make_unique<obs::Tracer>(std::move(options));
}

namespace {

using Interval = std::pair<uint64_t, uint64_t>;

/// Length of [lo, hi) covered by the union of `intervals`.
uint64_t CoveredNs(std::vector<Interval>& intervals, uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const uint64_t from = std::max(start, cursor);
    const uint64_t to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return covered;
}

bool StartsWith(const char* text, std::string_view prefix) {
  return std::string_view(text).substr(0, prefix.size()) == prefix;
}

/// Stored trace points in the wire's QUERY_RANGE shape.
std::vector<runtime::RangePoint> ToRangePoints(
    const std::vector<storage::TracePoint>& stored) {
  std::vector<runtime::RangePoint> points;
  points.reserve(stored.size());
  for (const storage::TracePoint& p : stored) {
    points.push_back(runtime::RangePoint{
        p.round, p.value, static_cast<uint8_t>(p.engaged ? 1 : 0)});
  }
  return points;
}

}  // namespace

void CollectTrace(obs::Tracer& tracer, Layers& layers) {
  const std::vector<obs::SpanRecord> records = tracer.Snapshot();
  // Every record takes one span id (ids count up from 1), so ids handed
  // out minus records kept counts what the ring overwrote or dropped.
  const uint64_t issued = tracer.NextSpanId() - 1;
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    by_id.emplace(records[i].span_id, i);
  }
  layers.trace_records += records.size();
  layers.trace_dropped += issued - std::min<uint64_t>(issued, records.size());

  std::unordered_map<uint64_t, std::vector<Interval>> children;
  std::unordered_map<uint64_t, std::vector<Interval>> server_under_root;
  for (const obs::SpanRecord& record : records) {
    if (record.kind == static_cast<uint8_t>(obs::SpanKind::kEvent)) continue;
    if (record.parent_id != 0) {
      children[record.parent_id].emplace_back(record.start_ns, record.end_ns);
    }
    if (record.kind != static_cast<uint8_t>(obs::SpanKind::kServer)) continue;
    uint64_t parent = record.parent_id;
    for (int depth = 0; parent != 0 && depth < 16; ++depth) {
      const auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      const obs::SpanRecord& ancestor = records[it->second];
      if (StartsWith(ancestor.name, "client.submit_batch")) {
        server_under_root[parent].emplace_back(record.start_ns,
                                               record.end_ns);
        break;
      }
      parent = ancestor.parent_id;
    }
  }
  // A span's time minus the part of it that `covering[span id]` covers.
  const auto self_ns = [](const obs::SpanRecord& record, auto& covering) {
    const auto it = covering.find(record.span_id);
    const uint64_t covered =
        it == covering.end()
            ? 0
            : CoveredNs(it->second, record.start_ns, record.end_ns);
    return record.end_ns - record.start_ns - covered;
  };
  for (const obs::SpanRecord& record : records) {
    if (StartsWith(record.name, "server.submit_batch")) {
      layers.server_self_ns.Add(self_ns(record, children));
    } else if (StartsWith(record.name, "client.submit_batch")) {
      layers.client_send_ns.Add(self_ns(record, server_under_root));
    }
  }
}

namespace {

/// Samples per window of the windowed tail percentiles: the smallest
/// window whose 99th percentile still has ten samples beyond it.
constexpr size_t kTailWindow = 1000;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

void ReportEndToEnd(const EndToEnd& e2e, Report& r) {
  r.Set("setup_s", e2e.setup_ns.Percentile(0.5) / 1e9, "s",
        e2e.setup_ns.count());
  r.Set("rounds_per_s", Median(e2e.epoch_rates), "1/s",
        e2e.epoch_rates.size());
  r.Set("ack_p50_ms", e2e.ack_ns.Percentile(0.5) / 1e6, "ms",
        e2e.ack_ns.count());
  r.Set("query_p50_ms", e2e.query_ns.Percentile(0.5) / 1e6, "ms",
        e2e.query_ns.count());
  r.Set("within_limit_ratio",
        e2e.acks > 0 ? static_cast<double>(e2e.acks_within_limit) /
                           static_cast<double>(e2e.acks)
                     : 0.0,
        "ratio", e2e.acks);
  r.Set("ok_ratio",
        e2e.attempted > 0 ? 1.0 - static_cast<double>(e2e.failed) /
                                      static_cast<double>(e2e.attempted)
                          : 0.0,
        "ratio", e2e.attempted);
  r.Set("peak_rss_mb", PeakRssMiB(), "MiB", 1);
}

void ReportLayers(const Layers& l, const EndToEnd& untraced, Report& r) {
  const auto us = [](const Samples& s, double q) {
    return s.Percentile(q) / 1e3;
  };
  // The end-to-end tails, from the untraced epochs of the trace run.
  r.Set("ack_p99_ms",
        untraced.ack_ns.WindowedPercentile(0.99, kTailWindow) / 1e6, "ms",
        untraced.ack_ns.count());
  r.Set("query_p99_ms",
        untraced.query_ns.WindowedPercentile(0.99, kTailWindow) / 1e6, "ms",
        untraced.query_ns.count());
  r.Set("runtime.server.self_us_p50", us(l.server_self_ns, 0.5), "us",
        l.server_self_ns.count());
  r.Set("runtime.server.self_us_p99", us(l.server_self_ns, 0.99), "us",
        l.server_self_ns.count());
  r.Set("runtime.server.requests", static_cast<double>(l.server_requests),
        "count", 1);
  r.Set("runtime.server.forwarded", static_cast<double>(l.server_forwarded),
        "count", 1);
  r.Set("runtime.server.backpressure_events",
        static_cast<double>(l.server_backpressure), "count", 1);
  r.Set("runtime.server.dedup_replays",
        static_cast<double>(l.server_dedup_replays), "count", 1);
  r.Set("runtime.client.send_us_p50", us(l.client_send_ns, 0.5), "us",
        l.client_send_ns.count());
  r.Set("runtime.client.wait_us_p99", us(l.client_wait_ns, 0.99), "us",
        l.client_wait_ns.count());
  r.Set("runtime.client.retries", static_cast<double>(l.client_retries),
        "count", 1);
  r.Set("runtime.client.reconnects", static_cast<double>(l.client_reconnects),
        "count", 1);
  r.Set("loadgen.late_ms_p99", l.late_ns.Percentile(0.99) / 1e6, "ms",
        l.late_ns.count());
  r.Set("loadgen.backlog_max", static_cast<double>(l.backlog_max), "count",
        l.late_ns.count());
  r.Set("obs.trace_dropped", static_cast<double>(l.trace_dropped), "count",
        l.trace_records);
  const double untraced_rate =
      untraced.timed_seconds > 0
          ? static_cast<double>(untraced.rounds) / untraced.timed_seconds
          : 0.0;
  const double traced_rate =
      l.traced_seconds > 0
          ? static_cast<double>(l.traced_rounds) / l.traced_seconds
          : 0.0;
  r.Set("obs.tracing_overhead_ratio",
        untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate
                          : 0.0,
        "ratio", l.traced_rounds);
}

/// Times every stage of every round: the gap between consecutive stage
/// hooks is charged to the stage that just finished.
class StageTimer final : public core::StageObserver {
 public:
  void OnRoundBegin(size_t, const core::VoteContext&) override {
    mark_ = Clock::now();
  }
  void OnStageDone(std::string_view stage,
                   const core::VoteContext&) override {
    const Clock::time_point now = Clock::now();
    for (size_t s = 0; s < core::kStageNames.size(); ++s) {
      if (core::kStageNames[s] == stage) {
        ns_[s] += ElapsedNs(mark_, now);
        break;
      }
    }
    mark_ = now;
  }
  bool wants_vote_result() const override { return false; }

  const std::array<uint64_t, core::kStageNames.size()>& ns() const {
    return ns_;
  }

 private:
  Clock::time_point mark_{};
  std::array<uint64_t, core::kStageNames.size()> ns_{};
};

constexpr int kRepeats = 5;

size_t TotalRounds(const std::vector<GroupInput>& groups) {
  size_t rounds = 0;
  for (const GroupInput& g : groups) rounds += g.table.round_count();
  return rounds;
}

/// One engine pass over every group's table with an optional observer
/// per group; returns the nanoseconds spent inside RunOverTable.
uint64_t EnginePass(const std::vector<GroupInput>& groups,
                    const std::vector<core::StageObserver*>& observers,
                    std::string& mismatch) {
  uint64_t ns = 0;
  core::BatchTrace trace;
  for (size_t g = 0; g < groups.size(); ++g) {
    core::VotingEngine engine =
        MakeGroupEngine(groups[g].table.module_count());
    if (!observers.empty()) engine.set_observer(observers[g]);
    trace.Reset(engine.module_count());
    trace.ReserveRounds(groups[g].table.round_count());
    const Clock::time_point start = Clock::now();
    const avoc::Status status =
        core::RunOverTable(engine, groups[g].table, trace);
    ns += ElapsedNs(start, Clock::now());
    if (!status.ok() && mismatch.empty()) {
      mismatch = groups[g].name + ": " + status.ToString();
    }
    if (mismatch.empty()) {
      mismatch = CompareTrace(groups[g], trace.view(), {},
                              groups[g].table.round_count(), 0);
    }
  }
  return ns;
}

void MeasureCore(const std::vector<GroupInput>& groups, Outcome& outcome,
                 double* core_ns_per_round) {
  const double rounds = static_cast<double>(TotalRounds(groups));
  std::vector<double> bare;
  std::vector<double> observed;
  std::array<std::vector<double>, core::kStageNames.size()> stages;
  for (int rep = 0; rep < kRepeats; ++rep) {
    bare.push_back(
        static_cast<double>(EnginePass(groups, {}, outcome.mismatch)));

    obs::Registry registry;
    std::vector<std::unique_ptr<obs::MetricsObserver>> metrics;
    std::vector<core::StageObserver*> attached;
    for (const GroupInput& g : groups) {
      // The options GroupRunner gives every served group.
      obs::MetricsObserverOptions options;
      options.scope = g.name;
      options.scope_label = "group";
      options.flush_every = 1;
      metrics.push_back(
          std::make_unique<obs::MetricsObserver>(registry, options));
      attached.push_back(metrics.back().get());
    }
    observed.push_back(
        static_cast<double>(EnginePass(groups, attached, outcome.mismatch)));

    std::vector<StageTimer> timers(groups.size());
    attached.clear();
    for (StageTimer& t : timers) attached.push_back(&t);
    EnginePass(groups, attached, outcome.mismatch);
    for (size_t s = 0; s < core::kStageNames.size(); ++s) {
      uint64_t ns = 0;
      for (const StageTimer& t : timers) ns += t.ns()[s];
      stages[s].push_back(static_cast<double>(ns));
    }
  }
  const uint64_t n = static_cast<uint64_t>(rounds);
  Report& r = outcome.report;
  *core_ns_per_round = Median(bare) / rounds;
  r.Set("core.ns_per_round", *core_ns_per_round, "ns", n);
  r.Set("obs.metrics_observer_ns_per_round",
        (Median(observed) - Median(bare)) / rounds, "ns", n);
  for (size_t s = 0; s < core::kStageNames.size(); ++s) {
    r.Set("core.stage." + std::string(core::kStageNames[s]) + ".ns_per_round",
          Median(stages[s]) / rounds, "ns", n);
  }
}

void MeasureMultiGroup(const std::vector<GroupInput>& groups,
                       Outcome& outcome) {
  constexpr size_t kWorkers = 4;
  double parallel_ns = 0;
  double sequential_ns = 0;
  uint64_t clustering = 0;
  uint64_t collapses = 0;
  uint64_t faulted = 0;
  size_t worker_max = 0;
  size_t worker_min = SIZE_MAX;
  // MultiGroupEngine runs groups of one arity, so each shape is a batch.
  for (const size_t modules : {size_t{5}, size_t{9}}) {
    std::vector<const GroupInput*> members;
    std::vector<data::RoundTable> tables;
    for (const GroupInput& g : groups) {
      if (g.table.module_count() != modules) continue;
      members.push_back(&g);
      tables.push_back(g.table);
    }
    if (members.empty()) continue;
    const core::EngineConfig config = MakeGroupEngine(modules).config();
    std::vector<double> par;
    std::vector<double> seq;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (const bool parallel : {true, false}) {
        obs::Registry registry;
        runtime::MultiGroupOptions options;
        options.threads = kWorkers;
        options.registry = &registry;
        auto engine = runtime::MultiGroupEngine::Create(
            members.size(), modules, config, options);
        if (!engine.ok()) {
          outcome.mismatch = "multi-group engine: " +
                             engine.status().ToString();
          return;
        }
        runtime::MultiGroupTrace trace;
        const Clock::time_point start = Clock::now();
        const avoc::Status status =
            parallel ? engine->RunBatch(tables, trace)
                     : engine->RunBatchSequential(tables, trace);
        const double ns = static_cast<double>(ElapsedNs(start, Clock::now()));
        (parallel ? par : seq).push_back(ns);
        if (!status.ok()) {
          outcome.mismatch = "multi-group batch: " + status.ToString();
          return;
        }
        for (size_t g = 0; g < members.size() && outcome.mismatch.empty();
             ++g) {
          outcome.mismatch =
              CompareTrace(*members[g], trace.group(g), {},
                           members[g]->table.round_count(), 0);
        }
        if (rep == 0 && parallel) {
          const runtime::MultiGroupStats stats = engine->Stats();
          clustering += stats.clustered_rounds;
          collapses += stats.history_collapse;
          faulted += stats.rounds - stats.voted;
        }
      }
    }
    parallel_ns += Median(par);
    sequential_ns += Median(seq);
    const size_t workers = std::min(kWorkers, members.size());
    const runtime::GroupRouter router(workers);
    for (size_t w = 0; w < workers; ++w) {
      const runtime::ShardRange range = router.RangeFor(w, members.size());
      size_t rounds = 0;
      for (size_t g = range.begin; g < range.end; ++g) {
        rounds += members[g]->table.round_count();
      }
      worker_max = std::max(worker_max, rounds);
      worker_min = std::min(worker_min, rounds);
    }
  }
  // The sink outcome columns must tell the same story as the counters.
  uint64_t reference_faulted = 0;
  for (const GroupInput& g : groups) {
    for (const core::RoundOutcome o : g.reference.outcomes) {
      if (o != core::RoundOutcome::kVoted) ++reference_faulted;
    }
  }
  if (outcome.mismatch.empty() && reference_faulted != faulted) {
    outcome.mismatch = "faulted rounds: multi-group stats count " +
                       std::to_string(faulted) + ", reference " +
                       std::to_string(reference_faulted);
  }
  Report& r = outcome.report;
  r.Set("runtime.multi_group.speedup_vs_sequential",
        parallel_ns > 0 ? sequential_ns / parallel_ns : 0.0, "x", kRepeats);
  r.Set("runtime.multi_group.worker_skew",
        worker_min > 0 ? static_cast<double>(worker_max) /
                             static_cast<double>(worker_min)
                       : 0.0,
        "ratio", 1);
  r.Set("core.clustering_rounds", static_cast<double>(clustering), "count",
        1);
  r.Set("core.history_collapses", static_cast<double>(collapses), "count", 1);
  r.Set("core.faulted_rounds", static_cast<double>(faulted), "count", 1);
}

void MeasureGroupLayer(const std::vector<GroupInput>& groups,
                       const std::vector<Request>& requests,
                       double core_ns_per_round, Outcome& outcome) {
  // Wire readings become hub messages before the clock starts: the
  // conversion is the server's cost, not the group pipeline's.
  struct Op {
    size_t group = 0;
    std::vector<runtime::ReadingMessage> readings;
    bool close = false;
    size_t close_round = 0;
  };
  std::vector<Op> ops;
  size_t readings = 0;
  size_t rounds = 0;
  for (const Request& request : requests) {
    rounds += request.rounds;
    for (const Step& step : request.steps) {
      Op op;
      op.group = request.group;
      for (const runtime::BatchReading& b : step.readings) {
        op.readings.push_back(runtime::ReadingMessage{
            static_cast<size_t>(b.module), static_cast<size_t>(b.round),
            b.value});
      }
      readings += op.readings.size();
      op.close = step.close;
      op.close_round = static_cast<size_t>(step.close_round);
      ops.push_back(std::move(op));
    }
  }
  std::vector<double> totals;
  size_t open_rounds = 0;
  size_t sink_rows = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    obs::Registry registry;
    runtime::VoterGroupManager manager(nullptr, &registry);
    for (const GroupInput& g : groups) {
      const avoc::Status added =
          manager.AddGroup(g.name, MakeGroupEngine(g.table.module_count()));
      if (!added.ok()) {
        outcome.mismatch = "group pipeline: " + added.ToString();
        return;
      }
    }
    uint64_t ns = 0;
    for (const Op& op : ops) {
      const std::string& name = groups[op.group].name;
      const Clock::time_point start = Clock::now();
      if (!op.readings.empty()) (void)manager.SubmitBatch(name, op.readings);
      if (op.close) (void)manager.CloseRound(name, op.close_round);
      ns += ElapsedNs(start, Clock::now());
    }
    totals.push_back(static_cast<double>(ns));
    open_rounds = 0;
    sink_rows = 0;
    for (const GroupInput& g : groups) {
      auto runner = manager.runner(g.name);
      if (!runner.ok()) {
        outcome.mismatch = "group pipeline: " + runner.status().ToString();
        return;
      }
      open_rounds += (*runner)->hub().open_rounds();
      const runtime::SinkNode& sink = (*runner)->sink();
      sink_rows += sink.output_count();
      if (!outcome.mismatch.empty()) continue;
      sink.WithTrace([&](const core::BatchTrace& trace,
                         const std::vector<size_t>& rows) {
        outcome.mismatch = CompareTrace(g, trace.view(), rows,
                                        g.table.round_count(), 0);
      });
    }
  }
  const double total = Median(totals);
  const double n = static_cast<double>(std::max<size_t>(readings, 1));
  Report& r = outcome.report;
  r.Set("runtime.group.ns_per_reading", total / n, "ns", readings);
  r.Set("runtime.group.self_ns_per_reading",
        (total - core_ns_per_round * static_cast<double>(rounds)) / n, "ns",
        readings);
  r.Set("runtime.group.open_rounds", static_cast<double>(open_rounds),
        "count", 1);
  r.Set("runtime.group.sink_rows", static_cast<double>(sink_rows), "count", 1);
}

void MeasureFraming(const std::vector<GroupInput>& groups,
                    const std::vector<Request>& requests, bool sequenced,
                    Outcome& outcome) {
  const runtime::FrameType type = sequenced
                                      ? runtime::FrameType::kSubmitBatchSeq
                                      : runtime::FrameType::kSubmitBatch;
  std::vector<double> encode;
  std::vector<double> decode;
  size_t readings = 0;
  size_t bytes = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::string wire;
    readings = 0;
    uint64_t seq = 1;
    const Clock::time_point start = Clock::now();
    for (const Request& request : requests) {
      for (const Step& step : request.steps) {
        if (step.readings.empty()) continue;
        const std::string& name = groups[request.group].name;
        wire += runtime::EncodeFrame(
            type, sequenced ? runtime::EncodeSubmitBatchSeq(
                                  "perfbench-client", seq++, name,
                                  step.readings)
                            : runtime::EncodeSubmitBatch(name, step.readings));
        readings += step.readings.size();
      }
    }
    encode.push_back(static_cast<double>(ElapsedNs(start, Clock::now())));
    bytes = wire.size();

    // Decode as a server reads it: socket-sized fragments into the
    // incremental decoder, then each payload into group and readings.
    constexpr size_t kReadBytes = 64 * 1024;
    runtime::FrameDecoder decoder;
    std::string client;
    uint64_t got_seq = 0;
    std::string group;
    std::vector<runtime::BatchReading> decoded;
    size_t decoded_readings = 0;
    const Clock::time_point decode_start = Clock::now();
    for (size_t offset = 0; offset < wire.size(); offset += kReadBytes) {
      decoder.Feed(std::string_view(wire).substr(offset, kReadBytes));
      while (true) {
        auto frame = decoder.Next();
        if (!frame.ok()) break;
        decoded.clear();
        const avoc::Status status =
            sequenced
                ? runtime::DecodeSubmitBatchSeq(frame->payload, &client,
                                                &got_seq, &group, &decoded)
                : runtime::DecodeSubmitBatch(frame->payload, &group,
                                             &decoded);
        if (!status.ok() && outcome.mismatch.empty()) {
          outcome.mismatch = "frame codec: " + status.ToString();
        }
        decoded_readings += decoded.size();
      }
    }
    decode.push_back(
        static_cast<double>(ElapsedNs(decode_start, Clock::now())));
    if (decoded_readings != readings && outcome.mismatch.empty()) {
      outcome.mismatch = "frame codec: decoded " +
                         std::to_string(decoded_readings) + " of " +
                         std::to_string(readings) + " readings";
    }
  }
  const double n = static_cast<double>(std::max<size_t>(readings, 1));
  Report& r = outcome.report;
  r.Set("runtime.framing.encode_ns_per_reading", Median(encode) / n, "ns",
        readings);
  r.Set("runtime.framing.decode_ns_per_reading", Median(decode) / n, "ns",
        readings);
  r.Set("runtime.framing.bytes_per_reading",
        static_cast<double>(bytes) / n, "B", readings);
}

/// Replays the epoch's batches into a StorageEngine on disk, as the
/// server persists them (one history Put and one trace append per
/// batch), reading each request's rounds back after it.
void MeasureStorage(const std::vector<GroupInput>& groups,
                    const std::vector<Request>& requests,
                    const std::string& dir, Outcome& outcome) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  obs::Registry registry;
  Samples put;
  Samples append;
  Samples query;
  uint64_t batches = 0;
  uint64_t rounds = 0;
  storage::StorageStats stats;
  {
    storage::StorageEngineOptions options;
    options.dir = dir;
    options.registry = &registry;
    auto opened = storage::StorageEngine::Open(options);
    if (!opened.ok()) {
      outcome.mismatch = "open store: " + opened.status().ToString();
      return;
    }
    storage::StorageEngine& store = **opened;
    std::vector<storage::TracePoint> points;
    for (const Request& request : requests) {
      const GroupInput& g = groups[request.group];
      const ReferenceTrace& ref = g.reference;
      size_t next = request.first_round;
      for (const Step& step : request.steps) {
        const size_t last = static_cast<size_t>(
            step.close ? step.close_round : step.readings.back().round);
        storage::HistorySnapshot snapshot;
        snapshot.records.assign(
            ref.history.begin() + static_cast<ptrdiff_t>(last * ref.modules),
            ref.history.begin() +
                static_cast<ptrdiff_t>((last + 1) * ref.modules));
        snapshot.rounds = last + 1;
        points.clear();
        for (size_t r = next; r <= last; ++r) {
          points.push_back(storage::TracePoint{
              r, ref.engaged[r] != 0 ? ref.values[r] : 0.0,
              ref.engaged[r] != 0});
        }
        Clock::time_point start = Clock::now();
        avoc::Status status = store.Put(g.name, snapshot);
        put.Add(ElapsedNs(start, Clock::now()));
        if (status.ok()) {
          start = Clock::now();
          status = store.AppendTrace(g.name, points);
          append.Add(ElapsedNs(start, Clock::now()));
        }
        if (!status.ok()) {
          outcome.mismatch = "store " + g.name + ": " + status.ToString();
          return;
        }
        ++batches;
        rounds += last + 1 - next;
        next = last + 1;
      }
      const uint64_t lo = request.first_round;
      const uint64_t hi = request.first_round + request.rounds - 1;
      const Clock::time_point start = Clock::now();
      auto stored = store.QueryTraceRange(g.name, lo, hi);
      query.Add(ElapsedNs(start, Clock::now()));
      if (!stored.ok()) {
        outcome.mismatch = "query store: " + stored.status().ToString();
        return;
      }
      if (outcome.mismatch.empty()) {
        outcome.mismatch = CheckRange(g, ToRangePoints(*stored), lo, hi);
      }
    }
    stats = store.stats();
  }
  if (outcome.mismatch.empty()) outcome.mismatch = CheckStore(dir, groups);
  std::filesystem::remove_all(dir, ignored);

  Report& r = outcome.report;
  const auto us = [](const Samples& s, double q) {
    return s.Percentile(q) / 1e3;
  };
  r.Set("storage.put_us_p50", us(put, 0.5), "us", put.count());
  r.Set("storage.put_us_p99", us(put, 0.99), "us", put.count());
  r.Set("storage.append_trace_us_p50", us(append, 0.5), "us",
        append.count());
  r.Set("storage.append_trace_us_p99", us(append, 0.99), "us",
        append.count());
  r.Set("storage.query_range_us_p50", us(query, 0.5), "us", query.count());
  r.Set("storage.query_range_us_p99", us(query, 0.99), "us", query.count());
  r.Set("storage.fsyncs_per_batch",
        static_cast<double>(stats.fsyncs) /
            static_cast<double>(std::max<uint64_t>(batches, 1)),
        "ratio", batches);
  r.Set("storage.wal_bytes_per_round",
        static_cast<double>(
            registry.SumCounters("avoc_storage_wal_bytes_total")) /
            static_cast<double>(std::max<uint64_t>(rounds, 1)),
        "B", rounds);
  r.Set("storage.sealed_chunks", static_cast<double>(stats.sealed_chunks),
        "count", 1);
  r.Set("storage.compactions", static_cast<double>(stats.compactions),
        "count", 1);
}

}  // namespace

std::string CheckStore(const std::string& dir,
                       const std::vector<GroupInput>& groups) {
  storage::StorageEngineOptions options;
  options.dir = dir;
  auto store = storage::StorageEngine::Open(options);
  if (!store.ok()) return "reopen store: " + store.status().ToString();
  for (const GroupInput& g : groups) {
    auto history = (*store)->Get(g.name);
    if (!history.ok()) return g.name + ": " + history.status().ToString();
    std::string mismatch =
        CheckHistory(g, history->records, g.table.round_count());
    if (!mismatch.empty()) return "reopened store: " + mismatch;
    const uint64_t last = g.table.round_count() - 1;
    auto trace = (*store)->QueryTraceRange(g.name, 0, last);
    if (!trace.ok()) return g.name + ": " + trace.status().ToString();
    mismatch = CheckRange(g, ToRangePoints(*trace), 0, last);
    if (!mismatch.empty()) return "reopened store: " + mismatch;
  }
  return {};
}

void ReportRun(const RunOptions& options, const EndToEnd& e2e,
               const Layers& layers, const std::vector<GroupInput>& groups,
               const std::vector<Request>& requests, bool sequenced,
               Outcome& outcome) {
  outcome.attempted = e2e.attempted;
  outcome.failed = e2e.failed;
  if (!options.trace) {
    ReportEndToEnd(e2e, outcome.report);
    return;
  }
  ReportLayers(layers, e2e, outcome.report);
  double core_ns_per_round = 0;
  MeasureCore(groups, outcome, &core_ns_per_round);
  MeasureMultiGroup(groups, outcome);
  MeasureGroupLayer(groups, requests, core_ns_per_round, outcome);
  MeasureFraming(groups, requests, sequenced, outcome);
  MeasureStorage(groups, requests, options.data_dir + "/offline-store",
                 outcome);
}

}  // namespace perfbench
