// ingest_pipelined: bulk ingest of long UC-1 recordings, closed loop.
//
// Four UC-1 groups (two per shard, one of each pair with the §7 fault)
// replay a long seeded table.  Each of the two client threads owns one
// shard's groups and keeps a fixed number of large SUBMIT_BATCH frames in
// flight on one RemoteVoterClient, alternating between its groups; every
// completed reply releases the next frame.  A second connection of the
// same thread reads back a just-acknowledged range (QUERY_RANGE) every
// 64 frames.  Per-reading server work dominates: frame decode, reading
// conversion, hub round assembly, one engine pass per frame, sink copy.
#include <deque>
#include <thread>

#include "runtime/remote.h"
#include "server.h"

namespace perfbench {
namespace {

constexpr size_t kGroupsPerShard = 2;
constexpr size_t kRoundsPerGroup = 20000;  // per epoch
constexpr size_t kRoundsPerFrame = 100;
constexpr size_t kDepth = 8;
constexpr size_t kReadEvery = 64;
constexpr size_t kReadRounds = 16;
constexpr double kAckLimitMs = 10.0;

struct ClientResult {
  EndToEnd e2e;
  Layers layers;
  std::string mismatch;
};

void DriveClient(uint16_t port, const std::vector<Request>& frames,
                 const std::vector<GroupInput>& groups, bool traced,
                 Clock::time_point t0, ClientResult& out) {
  auto client = runtime::RemoteVoterClient::ConnectBinary("127.0.0.1", port);
  auto reader = runtime::RemoteVoterClient::ConnectBinary("127.0.0.1", port);
  if (!client.ok() || !reader.ok() || !client->Ping().ok() ||
      !reader->Ping().ok()) {
    out.mismatch = "ingest client connect failed";
    return;
  }
  (void)client->SetRequestTimeoutMs(5000);
  (void)reader->SetRequestTimeoutMs(5000);
  EndToEnd& e2e = out.e2e;
  std::this_thread::sleep_until(t0);
  std::deque<std::pair<Clock::time_point, size_t>> in_flight;
  const auto await_one = [&]() {
    const Clock::time_point start = Clock::now();
    auto accepted = client->AwaitSubmitBatch();
    const Clock::time_point now = Clock::now();
    if (traced) out.layers.client_wait_ns.Add(ElapsedNs(start, now));
    const auto [sent, index] = in_flight.front();
    in_flight.pop_front();
    const Request& frame = frames[index];
    const uint64_t ack = ElapsedNs(sent, now);
    ++e2e.acks;
    if (!accepted.ok() ||
        *accepted != frame.steps.front().readings.size()) {
      ++e2e.failed;
      return;
    }
    e2e.ack_ns.Add(ack);
    e2e.rounds += frame.rounds;
    if (static_cast<double>(ack) <= kAckLimitMs * 1e6) {
      ++e2e.acks_within_limit;
    }
    if (e2e.acks % kReadEvery != 0 || !out.mismatch.empty()) return;
    const GroupInput& group = groups[frame.group];
    const uint64_t hi = frame.first_round + frame.rounds - 1;
    const uint64_t lo = hi + 1 - kReadRounds;
    const Clock::time_point read_start = Clock::now();
    auto range = reader->QueryRange(group.name, lo, hi);
    e2e.query_ns.Add(ElapsedNs(read_start, Clock::now()));
    ++e2e.attempted;
    if (!range.ok()) {
      ++e2e.failed;
      return;
    }
    out.mismatch = CheckRange(group, *range, lo, hi);
  };
  for (size_t i = 0; i < frames.size(); ++i) {
    const Request& frame = frames[i];
    const Clock::time_point start = Clock::now();
    const avoc::Status sent = client->PipelineSubmitBatch(
        groups[frame.group].name, frame.steps.front().readings);
    if (traced) out.layers.client_send_ns.Add(ElapsedNs(start, Clock::now()));
    ++e2e.attempted;
    if (!sent.ok()) {
      ++e2e.failed;
      out.mismatch = "pipelined submit: " + sent.ToString();
      return;
    }
    in_flight.emplace_back(start, i);
    while (in_flight.size() >= kDepth) await_one();
  }
  while (!in_flight.empty()) await_one();
}

}  // namespace

Outcome RunIngestPipelined(const RunOptions& options) {
  Outcome outcome;
  std::vector<GroupInput> groups;
  std::vector<std::vector<size_t>> owned(kServerShards);
  for (size_t i = 0; groups.size() < kServerShards * kGroupsPerShard; ++i) {
    const std::string name = "ingest-" + std::to_string(i);
    const size_t shard = ShardOf(name);
    if (owned[shard].size() == kGroupsPerShard) continue;
    const bool faulty = owned[shard].size() % 2 == 1;
    owned[shard].push_back(groups.size());
    groups.push_back(MakeLightGroup(name, options.seed, groups.size(),
                                    kRoundsPerGroup, faulty));
  }
  if (options.perturb_reference) PerturbReference(groups.front());

  // Frames alternate between a client's groups, in round order per group.
  std::vector<std::vector<Request>> frames(kServerShards);
  std::vector<Request> all_frames;
  for (size_t first = 0; first < kRoundsPerGroup; first += kRoundsPerFrame) {
    for (size_t shard = 0; shard < kServerShards; ++shard) {
      for (const size_t g : owned[shard]) {
        Request frame;
        frame.group = g;
        frame.first_round = first;
        frame.rounds = kRoundsPerFrame;
        frame.steps.push_back(
            BatchStep(groups[g].table, first, kRoundsPerFrame));
        frames[shard].push_back(frame);
        all_frames.push_back(std::move(frame));
      }
    }
  }

  EndToEnd e2e;
  Layers layers;
  const size_t rounds = kServerShards * kGroupsPerShard * kRoundsPerGroup;
  RunEpochs(options, 4 * all_frames.size() + rounds, e2e, layers, outcome,
            [&](obs::Tracer* tracer, EndToEnd& total,
                Layers* layer_out) -> std::string {
              HostedServer hosted;
              const Clock::time_point setup = Clock::now();
              std::string error =
                  StartServer(groups, tracer, nullptr, nullptr, hosted);
              total.setup_ns.Add(ElapsedNs(setup, Clock::now()));
              if (!error.empty()) return error;
              std::vector<ClientResult> results(kServerShards);
              std::vector<std::thread> threads;
              const Clock::time_point t0 =
                  Clock::now() + std::chrono::milliseconds(20);
              for (size_t c = 0; c < kServerShards; ++c) {
                threads.emplace_back([&, c] {
                  DriveClient(hosted.server->port(), frames[c], groups,
                              tracer != nullptr, t0, results[c]);
                });
              }
              for (std::thread& t : threads) t.join();
              total.timed_seconds += SecondsSince(t0);
              hosted.server->Stop();
              for (ClientResult& r : results) {
                if (error.empty()) error = r.mismatch;
                total.ack_ns.Append(r.e2e.ack_ns);
                total.query_ns.Append(r.e2e.query_ns);
                total.rounds += r.e2e.rounds;
                total.attempted += r.e2e.attempted;
                total.failed += r.e2e.failed;
                total.acks += r.e2e.acks;
                total.acks_within_limit += r.e2e.acks_within_limit;
                if (layer_out != nullptr && tracer != nullptr) {
                  layer_out->client_send_ns.Append(r.layers.client_send_ns);
                  layer_out->client_wait_ns.Append(r.layers.client_wait_ns);
                }
              }
              if (layer_out != nullptr && tracer != nullptr) {
                CollectServer(hosted, *layer_out);
              }
              if (error.empty()) error = CheckSinks(hosted, groups);
              return error;
            });

  ReportRun(options, e2e, layers, groups, all_frames, /*sequenced=*/false,
            outcome);
  return outcome;
}

}  // namespace perfbench
