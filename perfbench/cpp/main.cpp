// The AVOC end-to-end benchmark.
//
//   avoc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--data-dir <dir>] [--source-id <id>]
//
// Workloads: fleet_open, ingest_pipelined, durable_mixed, replay_batch
// (see each workload's file).  With --trace 0 the run measures the
// end-to-end metrics with tracing off; with --trace 1 it alternates
// untraced and traced epochs and measures every layer.  Every run checks
// the fused output against an in-process reference and exits 1 on any
// mismatch.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it records the host, build, seed and the sample count
// behind every metric.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/cli.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  auto parsed = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const avoc::CommandLine& cli = *parsed;
  perfbench::RunOptions options;
  const std::string workload = cli.GetString("workload", "");
  options.seed = static_cast<uint64_t>(cli.GetInt("seed", 1));
  options.seconds = cli.GetDouble("seconds", 10.0);
  options.trace = cli.GetInt("trace", 0) != 0;
  options.data_dir = cli.GetString("data-dir", ".bench_build/perfbench-data");
  options.perturb_reference = cli.GetBool("perturb-reference", false);
  const std::string source_id = cli.GetString("source-id", "unknown");
  if (!cli.UnconsumedFlags().empty() || options.seconds <= 0 ||
      options.seconds > 60) {
    std::fprintf(stderr,
                 "usage: avoc_perfbench --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1>\n");
    return 2;
  }

  perfbench::Outcome outcome;
  if (workload == "fleet_open") {
    outcome = perfbench::RunFleetOpen(options);
  } else if (workload == "ingest_pipelined") {
    outcome = perfbench::RunIngestPipelined(options);
  } else if (workload == "durable_mixed") {
    outcome = perfbench::RunDurableMixed(options);
  } else if (workload == "replay_batch") {
    outcome = perfbench::RunReplayBatch(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  const bool correct = outcome.mismatch.empty();
  if (!correct) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 outcome.mismatch.c_str());
    // A wrong answer fails every operation of the run.
    outcome.failed = outcome.attempted;
  }
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"source_id\": \"%s\", \"samples\": %s}}\n",
      workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      source_id.c_str(), outcome.report.SamplesJson().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(outcome.attempted, 1)),
      static_cast<unsigned long long>(outcome.failed),
      outcome.report.MetricsJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
