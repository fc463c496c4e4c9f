// durable_mixed: writes and reads against the embedded storage engine.
//
// One StorageEngine on the real disk, with the default fsync-per-commit
// policy, is both the history and the trace backend of the server, so
// every acknowledged batch costs a history Put and a trace append, each a
// WAL commit.  One writer thread submits moderate batches round-robin to
// four UC-1 groups, two per shard, over one connection per shard.  One
// reader thread alternates QUERY_RANGE over the writer's most recently
// acknowledged rounds with HISTORY_GET, pausing briefly between reads.
// A write-side gain that stalls readers behind the storage mutex shows
// up here as a read-latency loss.
#include <atomic>
#include <filesystem>
#include <thread>

#include "server.h"
#include "storage/engine.h"

namespace perfbench {
namespace {

constexpr size_t kGroups = 4;
constexpr size_t kRoundsPerGroup = 1024;  // per epoch
constexpr size_t kRoundsPerBatch = 8;
constexpr auto kReaderPause = std::chrono::microseconds(500);
constexpr double kAckLimitMs = 20.0;

}  // namespace

Outcome RunDurableMixed(const RunOptions& options) {
  Outcome outcome;
  // Two groups per shard, the second of each pair with the §7 fault.
  std::vector<GroupInput> groups;
  std::vector<size_t> per_shard(kServerShards, 0);
  for (size_t i = 0; groups.size() < kGroups; ++i) {
    const std::string name = "durable-" + std::to_string(i);
    const size_t shard = ShardOf(name);
    if (per_shard[shard] == kGroups / kServerShards) continue;
    const bool faulty = per_shard[shard]++ % 2 == 1;
    groups.push_back(MakeLightGroup(name, options.seed, groups.size(),
                                    kRoundsPerGroup, faulty));
  }
  if (options.perturb_reference) PerturbReference(groups.front());
  std::vector<Request> batches;
  for (size_t first = 0; first < kRoundsPerGroup; first += kRoundsPerBatch) {
    for (size_t g = 0; g < kGroups; ++g) {
      Request batch;
      batch.group = g;
      batch.first_round = first;
      batch.rounds = kRoundsPerBatch;
      batch.steps.push_back(
          BatchStep(groups[g].table, first, kRoundsPerBatch));
      batches.push_back(std::move(batch));
    }
  }

  size_t epoch_index = 0;
  EndToEnd e2e;
  Layers layers;
  RunEpochs(
      options, 8 * batches.size() + kGroups * kRoundsPerGroup, e2e, layers,
      outcome,
      [&](obs::Tracer* tracer, EndToEnd& total,
          Layers* layer_out) -> std::string {
        const std::string dir =
            options.data_dir + "/epoch-" + std::to_string(epoch_index++);
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
        std::unique_ptr<storage::StorageEngine> store;
        HostedServer hosted;
        const Clock::time_point setup = Clock::now();
        storage::StorageEngineOptions store_options;
        store_options.dir = dir;
        store_options.tracer = tracer;
        auto opened = storage::StorageEngine::Open(store_options);
        if (!opened.ok()) return "open store: " + opened.status().ToString();
        store = std::move(opened).value();
        std::string error =
            StartServer(groups, tracer, store.get(), store.get(), hosted);
        total.setup_ns.Add(ElapsedNs(setup, Clock::now()));
        if (!error.empty()) return error;

        const uint16_t port = hosted.server->port();
        std::vector<std::atomic<uint64_t>> acked(kGroups);
        std::atomic<bool> writing{true};
        EndToEnd writer_e2e;
        EndToEnd reader_e2e;
        Layers writer_layers;
        std::string writer_error;
        std::string reader_error;
        runtime::RetryPolicy policy;
        policy.request_timeout_ms = 5000;
        policy.deadline_ms = 10000;
        const Clock::time_point t0 =
            Clock::now() + std::chrono::milliseconds(20);
        std::thread writer([&] {
          // One connection per shard, so every batch is shard-local.
          obs::Registry client_registry;
          std::vector<std::unique_ptr<runtime::ResilientVoterClient>> clients;
          for (size_t shard = 0; shard < kServerShards; ++shard) {
            clients.push_back(std::make_unique<runtime::ResilientVoterClient>(
                Dialer(port), runtime::SystemClock::Instance(),
                "writer-" + std::to_string(shard), policy, shard + 1,
                &client_registry, tracer));
            if (!clients.back()->Ping().ok()) {
              writer_error = "writer connect failed";
            }
          }
          std::this_thread::sleep_until(t0);
          for (size_t i = 0; i < batches.size() && writer_error.empty();
               ++i) {
            const Request& batch = batches[i];
            const std::vector<runtime::BatchReading>& readings =
                batch.steps.front().readings;
            const Clock::time_point start = Clock::now();
            const std::string& name = groups[batch.group].name;
            auto accepted = clients[ShardOf(name)]->SubmitBatch(name, readings);
            const uint64_t ack = ElapsedNs(start, Clock::now());
            if (tracer != nullptr) writer_layers.client_wait_ns.Add(ack);
            ++writer_e2e.attempted;
            ++writer_e2e.acks;
            if (!accepted.ok() || *accepted != readings.size()) {
              ++writer_e2e.failed;
              writer_error = "durable submit failed";
              break;
            }
            writer_e2e.ack_ns.Add(ack);
            writer_e2e.rounds += batch.rounds;
            if (static_cast<double>(ack) <= kAckLimitMs * 1e6) {
              ++writer_e2e.acks_within_limit;
            }
            acked[batch.group].store(batch.first_round + batch.rounds);
          }
          for (const auto& client : clients) {
            writer_layers.client_retries += client->retry_attempts();
            writer_layers.client_reconnects += client->reconnects();
          }
          writing.store(false);
        });
        std::thread reader([&] {
          obs::Registry client_registry;
          std::vector<std::unique_ptr<runtime::ResilientVoterClient>> clients;
          for (size_t shard = 0; shard < kServerShards; ++shard) {
            clients.push_back(std::make_unique<runtime::ResilientVoterClient>(
                Dialer(port), runtime::SystemClock::Instance(),
                "reader-" + std::to_string(shard), policy, shard + 11,
                &client_registry, nullptr));
            if (!clients.back()->Ping().ok()) {
              reader_error = "reader connect failed";
            }
          }
          std::this_thread::sleep_until(t0);
          for (size_t k = 0; writing.load() && reader_error.empty(); ++k) {
            std::this_thread::sleep_for(kReaderPause);
            const GroupInput& group = groups[k % kGroups];
            runtime::ResilientVoterClient& client =
                *clients[ShardOf(group.name)];
            const uint64_t fused = acked[k % kGroups].load();
            if (fused < kRoundsPerBatch) continue;
            const Clock::time_point start = Clock::now();
            bool ok = false;
            if ((k / kGroups) % 2 == 0) {
              auto range = client.QueryRange(group.name,
                                             fused - kRoundsPerBatch,
                                             fused - 1);
              reader_e2e.query_ns.Add(ElapsedNs(start, Clock::now()));
              ok = range.ok();
              if (ok) {
                reader_error = CheckRange(group, *range,
                                          fused - kRoundsPerBatch, fused - 1);
              }
            } else {
              auto ledger = client.HistoryGet(group.name);
              reader_e2e.query_ns.Add(ElapsedNs(start, Clock::now()));
              ok = ledger.ok() &&
                   ledger->records.size() == group.table.module_count();
            }
            ++reader_e2e.attempted;
            if (!ok) ++reader_e2e.failed;
          }
        });
        writer.join();
        reader.join();
        total.timed_seconds += SecondsSince(t0);
        hosted.server->Stop();
        error = !writer_error.empty() ? writer_error : reader_error;

        total.ack_ns.Append(writer_e2e.ack_ns);
        total.query_ns.Append(reader_e2e.query_ns);
        total.rounds += writer_e2e.rounds;
        total.attempted += writer_e2e.attempted + reader_e2e.attempted;
        total.failed += writer_e2e.failed + reader_e2e.failed;
        total.acks += writer_e2e.acks;
        total.acks_within_limit += writer_e2e.acks_within_limit;
        if (layer_out != nullptr && tracer != nullptr) {
          layer_out->client_wait_ns.Append(writer_layers.client_wait_ns);
          layer_out->client_retries += writer_layers.client_retries;
          layer_out->client_reconnects += writer_layers.client_reconnects;
          CollectServer(hosted, *layer_out);
        }
        if (error.empty()) error = CheckSinks(hosted, groups);
        // The server holds the store; release it before the store closes.
        hosted.server.reset();
        store.reset();
        if (error.empty()) error = CheckStore(dir, groups);
        std::filesystem::remove_all(dir, ignored);
        return error;
      });

  ReportRun(options, e2e, layers, groups, batches, /*sequenced=*/true,
            outcome);
  return outcome;
}

}  // namespace perfbench
