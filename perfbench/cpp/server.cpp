#include "server.h"

#include "runtime/group_router.h"
#include "runtime/tcp.h"

namespace perfbench {

std::string StartServer(const std::vector<GroupInput>& groups,
                        obs::Tracer* tracer, storage::HistoryBackend* store,
                        storage::TraceBackend* traces, HostedServer& out) {
  out.registry = std::make_unique<obs::Registry>();
  runtime::ShardedServerOptions options;
  options.shards = kServerShards;
  options.base.tracer = tracer;
  auto server = runtime::ShardedVoterServer::Start(
      options, store, out.registry.get(), traces);
  if (!server.ok()) return "server start: " + server.status().ToString();
  out.server = std::move(server).value();
  for (const GroupInput& g : groups) {
    const avoc::Status added = out.server->AddGroup(
        g.name, MakeGroupEngine(g.table.module_count()));
    if (!added.ok()) return "add group " + g.name + ": " + added.ToString();
  }
  const avoc::Status serving = out.server->Serve();
  if (!serving.ok()) return "serve: " + serving.ToString();
  return {};
}

runtime::ResilientVoterClient::TransportFactory Dialer(uint16_t port) {
  return [port]() -> avoc::Result<std::unique_ptr<runtime::Transport>> {
    auto connection = runtime::TcpConnection::Connect("127.0.0.1", port);
    if (!connection.ok()) return connection.status();
    return std::unique_ptr<runtime::Transport>(
        std::make_unique<runtime::TcpConnection>(
            std::move(connection).value()));
  };
}

std::string CheckSinks(const HostedServer& hosted,
                       const std::vector<GroupInput>& groups) {
  for (const GroupInput& g : groups) {
    auto sink = hosted.server->sink(g.name);
    if (!sink.ok()) return g.name + ": " + sink.status().ToString();
    std::string mismatch;
    (*sink)->WithTrace([&](const core::BatchTrace& trace,
                           const std::vector<size_t>& rounds) {
      mismatch = CompareTrace(g, trace.view(), rounds,
                              g.table.round_count(), 0);
    });
    if (!mismatch.empty()) return mismatch;
  }
  return {};
}

void CollectServer(const HostedServer& hosted, Layers& layers) {
  const runtime::ShardedVoterServer& server = *hosted.server;
  layers.server_requests += server.requests_served();
  layers.server_forwarded += server.forwarded_requests();
  layers.server_dedup_replays += server.dedup_replays();
  layers.server_backpressure +=
      hosted.registry->SumCounters("avoc_remote_backpressure_total");
}

size_t ShardOf(const std::string& name) {
  return runtime::GroupRouter(kServerShards).ShardFor(name);
}

}  // namespace perfbench
