// replay_batch: an in-process batch job over many UC-1 recordings.
//
// A MultiGroupEngine with a fixed pool of four workers replays 64 seeded
// UC-1 tables (every fourth with the §7 fault) in chunks: each RunBatch
// call takes the next 256 rounds of every group, continuing each group's
// engine state.  After every call the job reads one group's fused chunk
// and its history ledger back out of the engine, as a consumer would.  No
// server, codec or storage is involved, so engine and telemetry costs
// dominate.
#include "obs/metrics.h"
#include "runtime/multi_group.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kGroups = 64;
constexpr size_t kRoundsPerGroup = 4096;  // per epoch
constexpr size_t kRoundsPerCall = 256;
constexpr size_t kWorkers = 4;
constexpr double kAckLimitMs = 10.0;

}  // namespace

Outcome RunReplayBatch(const RunOptions& options) {
  Outcome outcome;
  std::vector<GroupInput> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    groups.push_back(MakeLightGroup("replay-" + std::to_string(g),
                                    options.seed, g, kRoundsPerGroup,
                                    g % 4 == 3));
  }
  if (options.perturb_reference) PerturbReference(groups.front());
  const size_t calls = kRoundsPerGroup / kRoundsPerCall;
  std::vector<std::vector<data::RoundTable>> chunks(calls);
  std::vector<Request> requests;
  for (size_t c = 0; c < calls; ++c) {
    for (size_t g = 0; g < kGroups; ++g) {
      auto slice = groups[g].table.Slice(c * kRoundsPerCall,
                                         (c + 1) * kRoundsPerCall);
      if (!slice.ok()) {
        outcome.mismatch = "slice: " + slice.status().ToString();
        return outcome;
      }
      chunks[c].push_back(std::move(slice).value());
      Request request;
      request.group = g;
      request.first_round = c * kRoundsPerCall;
      request.rounds = kRoundsPerCall;
      request.steps.push_back(
          BatchStep(groups[g].table, c * kRoundsPerCall, kRoundsPerCall));
      requests.push_back(std::move(request));
    }
  }
  const core::EngineConfig config = MakeGroupEngine(5).config();

  // One trace per call, kept across epochs: the calls run back to back
  // (checking them between calls would leave the workers idle), and the
  // blocks are reused instead of reallocated.
  std::vector<runtime::MultiGroupTrace> traces(calls);
  EndToEnd e2e;
  Layers layers;
  RunEpochs(
      options, 4 * calls, e2e, layers, outcome,
      [&](obs::Tracer* tracer, EndToEnd& total, Layers*) -> std::string {
        obs::Registry registry;
        runtime::MultiGroupOptions engine_options;
        engine_options.threads = kWorkers;
        engine_options.registry = &registry;
        const Clock::time_point setup = Clock::now();
        auto engine = runtime::MultiGroupEngine::Create(kGroups, 5, config,
                                                        engine_options);
        total.setup_ns.Add(ElapsedNs(setup, Clock::now()));
        if (!engine.ok()) return "engine: " + engine.status().ToString();
        std::vector<std::vector<runtime::RangePoint>> points(calls);
        std::vector<std::vector<double>> records(calls);
        for (size_t c = 0; c < calls; ++c) {
          const Clock::time_point start = Clock::now();
          avoc::Status status;
          {
            obs::ScopedSpan span(tracer, obs::SpanKind::kEngine,
                                 "bench.run_batch", {});
            status = engine->RunBatch(chunks[c], traces[c]);
          }
          const uint64_t ack = ElapsedNs(start, Clock::now());
          total.timed_seconds += static_cast<double>(ack) / 1e9;
          ++total.attempted;
          ++total.acks;
          if (!status.ok()) {
            ++total.failed;
            return "RunBatch: " + status.ToString();
          }
          total.ack_ns.Add(ack);
          total.rounds += kGroups * kRoundsPerCall;
          if (static_cast<double>(ack) <= kAckLimitMs * 1e6) {
            ++total.acks_within_limit;
          }

          // A consumer reads one group's fused chunk and its ledger.
          const size_t g = c % kGroups;
          const Clock::time_point read = Clock::now();
          const core::TraceView view = traces[c].group(g);
          points[c].reserve(view.round_count());
          for (size_t r = 0; r < view.round_count(); ++r) {
            const auto value = view.output(r);
            points[c].push_back(runtime::RangePoint{
                c * kRoundsPerCall + r, value.value_or(0.0),
                uint8_t{value.has_value() ? uint8_t{1} : uint8_t{0}}});
          }
          const std::span<const double> ledger = engine->GroupHistory(g);
          records[c].assign(ledger.begin(), ledger.end());
          total.query_ns.Add(ElapsedNs(read, Clock::now()));
          ++total.attempted;
        }
        for (size_t c = 0; c < calls; ++c) {
          const size_t g = c % kGroups;
          const size_t first = c * kRoundsPerCall;
          std::string mismatch = CheckRange(groups[g], points[c], first,
                                            first + kRoundsPerCall - 1);
          if (mismatch.empty()) {
            mismatch =
                CheckHistory(groups[g], records[c], first + kRoundsPerCall);
          }
          for (size_t h = 0; h < kGroups && mismatch.empty(); ++h) {
            mismatch = CompareTrace(groups[h], traces[c].group(h), {},
                                    kRoundsPerCall, first);
          }
          if (!mismatch.empty()) return mismatch;
        }
        return {};
      });

  ReportRun(options, e2e, layers, groups, requests, /*sequenced=*/false,
            outcome);
  return outcome;
}

}  // namespace perfbench
