// Hosting the real sharded voter server in-process for the networked
// workloads, and reading its state back after an epoch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/resilient.h"
#include "runtime/sharded_remote.h"
#include "storage/backend.h"
#include "workloads.h"

namespace perfbench {

/// Shard count of every networked workload.  Server shards plus client
/// threads stay at 4, the core count the benchmark was sized on.
inline constexpr size_t kServerShards = 2;

/// A serving sharded server and the registry it publishes into.
struct HostedServer {
  std::unique_ptr<obs::Registry> registry;  ///< outlives the server
  std::unique_ptr<runtime::ShardedVoterServer> server;
};

/// Starts a kServerShards-shard server on an ephemeral loopback port,
/// registers every group (AVOC engines) and serves.  Returns an error
/// description, or empty on success.
std::string StartServer(const std::vector<GroupInput>& groups,
                        obs::Tracer* tracer, storage::HistoryBackend* store,
                        storage::TraceBackend* traces, HostedServer& out);

/// Dials a new loopback connection to `port` per call.
runtime::ResilientVoterClient::TransportFactory Dialer(uint16_t port);

/// Compares every group's sink with its full reference trace.
std::string CheckSinks(const HostedServer& hosted,
                       const std::vector<GroupInput>& groups);

/// Adds the server's public counters to `layers`.
void CollectServer(const HostedServer& hosted, Layers& layers);

/// The server shard owning `name` (the server's own router).
size_t ShardOf(const std::string& name);

}  // namespace perfbench
