// The four workloads and the measurements they share.
//
// Every workload runs in epochs: set up a fresh server (or engine), drive
// one fixed, seeded set of inputs through it, tear it down and check the
// fused output against the in-process reference.  Epochs repeat until the
// run's time is up.  Fixed-size epochs keep memory bounded (the sink keeps
// every fused row), give one set-up sample per epoch, and make every
// per-epoch count a function of the seed alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "runtime/framing.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (inside the checkout) for the stores the run
  /// writes: durable_mixed's, and the trace run's offline storage pass.
  std::string data_dir;
  /// Corrupt one reference row so the gate must trip (self-test only).
  bool perturb_reference = false;
};

/// One frame-level step of a gateway request: submit `readings`, then,
/// when `close` is set, force-close `close_round` (the round has holes,
/// so it would never complete on its own).
struct Step {
  std::vector<runtime::BatchReading> readings;
  bool close = false;
  uint64_t close_round = 0;
};

/// One request a client sends for one group: consecutive rounds
/// [first_round, first_round + rounds) as one or more steps.
struct Request {
  size_t group = 0;
  size_t first_round = 0;
  size_t rounds = 0;
  std::vector<Step> steps;
};

/// Splits rounds [first, first + count) of `table` the way a gateway must
/// to keep rounds in order: readings go out in one batch up to and
/// including the next round with holes, which is then closed.
std::vector<Step> GatewaySteps(const data::RoundTable& table, size_t first,
                               size_t count);

/// Readings of rounds [first, first + count) as one step (no holes
/// expected; rounds complete on their own).
Step BatchStep(const data::RoundTable& table, size_t first, size_t count);

/// End-to-end measurements accumulated over the timed phases.
struct EndToEnd {
  Samples setup_ns;
  Samples ack_ns;
  Samples query_ns;
  uint64_t rounds = 0;       ///< fused rounds acknowledged
  double timed_seconds = 0;  ///< sum of timed phases
  std::vector<double> epoch_rates;  ///< rounds per second of each epoch
  uint64_t attempted = 0;    ///< submits + closes + queries
  uint64_t failed = 0;       ///< failed, refused or timed out
  uint64_t acks = 0;         ///< requests timed into ack_ns or failed
  uint64_t acks_within_limit = 0;
};

/// Per-layer measurements of a trace run, taken online.  The storage
/// layer and the in-process layers are measured offline instead (see
/// ReportRun).
struct Layers {
  Samples server_self_ns;
  Samples client_send_ns;
  Samples client_wait_ns;
  uint64_t client_retries = 0;
  uint64_t client_reconnects = 0;
  uint64_t server_requests = 0;
  uint64_t server_forwarded = 0;
  uint64_t server_backpressure = 0;
  uint64_t server_dedup_replays = 0;
  Samples late_ns;
  uint64_t backlog_max = 0;
  uint64_t trace_dropped = 0;
  uint64_t trace_records = 0;
  uint64_t traced_rounds = 0;
  double traced_seconds = 0;
};

/// A traced epoch's flight recorder: one ring large enough that nothing
/// is overwritten (ring placement is per thread, so one ring is the only
/// way to bound every thread's records at once).
std::unique_ptr<obs::Tracer> MakeTracer(size_t expected_records);

/// Reads a traced epoch back: server self times (server.submit_batch*
/// spans minus the time their child spans cover), client time outside
/// the server (client.submit_batch roots minus their server
/// descendants), and records lost to overwrites or contention.
void CollectTrace(obs::Tracer& tracer, Layers& layers);

/// What one workload run produced.
struct Outcome {
  std::string mismatch;  ///< first correctness failure; empty when correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
};

/// Reports a finished run into `outcome`.  An untraced run reports the
/// end-to-end metrics.  A trace run reports every per-layer metric: the
/// online ones from `layers` and the untraced epochs in `e2e`, then
/// offline passes over one epoch's exact inputs (`requests`, in send
/// order): bare and observed engine passes, per-stage times, the
/// multi-group engine, the group pipeline, the frame codec (`sequenced`
/// selects SUBMIT_BATCH_SEQ frames) and the storage engine, on disk under
/// `options.data_dir`.  The offline passes check their output against the
/// reference too.
void ReportRun(const RunOptions& options, const EndToEnd& e2e,
               const Layers& layers, const std::vector<GroupInput>& groups,
               const std::vector<Request>& requests, bool sequenced,
               Outcome& outcome);

/// Opens the store in `dir` afresh and checks that it holds every
/// group's final history and full trace.
std::string CheckStore(const std::string& dir,
                       const std::vector<GroupInput>& groups);

/// Runs `epoch(tracer, e2e, layers)` until `options.seconds` have passed,
/// at least once, stopping at the first correctness failure.  `epoch`
/// returns that failure (empty when correct).  A trace run alternates an
/// untraced and a traced epoch, each traced one with a fresh flight
/// recorder sized for `expected_records`, and charges their rounds to the
/// tracing-overhead comparison; the untraced epochs alone feed `e2e`.
template <typename EpochFn>
void RunEpochs(const RunOptions& options, size_t expected_records,
               EndToEnd& e2e, Layers& layers, Outcome& outcome,
               EpochFn&& epoch) {
  const Clock::time_point start = Clock::now();
  do {
    const uint64_t rounds = e2e.rounds;
    const double seconds = e2e.timed_seconds;
    outcome.mismatch = epoch(nullptr, e2e, options.trace ? &layers : nullptr);
    if (e2e.timed_seconds > seconds) {
      e2e.epoch_rates.push_back(static_cast<double>(e2e.rounds - rounds) /
                                (e2e.timed_seconds - seconds));
    }
    if (!options.trace || !outcome.mismatch.empty()) continue;
    EndToEnd traced;
    std::unique_ptr<obs::Tracer> tracer = MakeTracer(expected_records);
    outcome.mismatch = epoch(tracer.get(), traced, &layers);
    layers.traced_rounds += traced.rounds;
    layers.traced_seconds += traced.timed_seconds;
    e2e.attempted += traced.attempted;
    e2e.failed += traced.failed;
    CollectTrace(*tracer, layers);
  } while (outcome.mismatch.empty() && SecondsSince(start) < options.seconds);
}

Outcome RunFleetOpen(const RunOptions& options);
Outcome RunIngestPipelined(const RunOptions& options);
Outcome RunDurableMixed(const RunOptions& options);
Outcome RunReplayBatch(const RunOptions& options);

}  // namespace perfbench
