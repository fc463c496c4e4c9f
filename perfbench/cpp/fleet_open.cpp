// fleet_open: many small groups under an open-loop gateway load.
//
// Half the groups are UC-1 shaped (5 light sensors, a +6000 lux fault on
// every fourth), half UC-2 shaped (9 BLE beacons with holes).  Each of the
// two client threads owns the groups of one server shard and sends, on a
// fixed schedule, one request every 1/rate seconds: the next few rounds of
// its next group as SUBMIT_BATCH_SEQ frames through a ResilientVoterClient,
// with a CLOSE after every round that has holes (a gateway's timeout).
// Every eighth request is followed by a dashboard read (QUERY_RANGE or
// HISTORY_GET) of the rounds just acknowledged.  Latency counts from when
// a request was due, so a stall also charges the requests queued behind
// it.
#include <thread>

#include "runtime/remote.h"
#include "server.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 2;             // one per shard
constexpr size_t kGroupsPerShape = 16;     // per client
constexpr size_t kRoundsPerGroup = 128;    // per epoch
constexpr size_t kLightRoundsPerRequest = 2;
constexpr size_t kBleRoundsPerRequest = 4;
constexpr double kRequestsPerSecond = 1000; // per client
constexpr double kAckLimitMs = 5.0;
constexpr size_t kReadEvery = 8;

struct ClientPlan {
  std::vector<Request> requests;
};

/// Picks group names so that each shard owns kGroupsPerShape groups of
/// each shape; the names, and so the placement, never depend on the seed.
std::vector<GroupInput> MakeGroups(uint64_t seed,
                                   std::vector<ClientPlan>& plans) {
  std::vector<GroupInput> groups;
  std::vector<std::vector<size_t>> owned(kClients);
  for (const bool light : {true, false}) {
    std::vector<size_t> taken(kClients, 0);
    const size_t wanted = groups.size() + kClients * kGroupsPerShape;
    for (size_t i = 0; groups.size() < wanted; ++i) {
      const std::string name = (light ? "light-" : "ble-") + std::to_string(i);
      const size_t shard = ShardOf(name);
      if (taken[shard] == kGroupsPerShape) continue;
      const bool faulty = ++taken[shard] % 4 == 0;
      owned[shard].push_back(groups.size());
      const size_t index = groups.size();
      groups.push_back(
          light ? MakeLightGroup(name, seed, index, kRoundsPerGroup, faulty)
                : MakeBleGroup(name, seed, index, kRoundsPerGroup));
    }
  }
  // Light gateways report every two rounds, BLE gateways every four:
  // each cycle a client sends two requests per light group and one per
  // BLE group, so two thirds of the requests are single frames.
  plans.assign(kClients, ClientPlan{});
  const auto request = [&](size_t g, size_t first, size_t rounds) {
    Request r;
    r.group = g;
    r.first_round = first;
    r.rounds = rounds;
    r.steps = GatewaySteps(groups[g].table, first, rounds);
    return r;
  };
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t first = 0; first < kRoundsPerGroup;
         first += kBleRoundsPerRequest) {
      for (size_t i = 0; i < kGroupsPerShape; ++i) {
        const size_t light = owned[c][i];
        const size_t ble = owned[c][kGroupsPerShape + i];
        plans[c].requests.push_back(
            request(light, first, kLightRoundsPerRequest));
        plans[c].requests.push_back(
            request(ble, first, kBleRoundsPerRequest));
        plans[c].requests.push_back(request(
            light, first + kLightRoundsPerRequest, kLightRoundsPerRequest));
      }
    }
  }
  return groups;
}

struct ClientResult {
  EndToEnd e2e;
  Layers layers;
  std::string mismatch;
};

void DriveClient(size_t client, uint16_t port, const ClientPlan& plan,
                 const std::vector<GroupInput>& groups, obs::Tracer* tracer,
                 Clock::time_point t0, ClientResult& out) {
  runtime::RetryPolicy policy;
  policy.request_timeout_ms = 1000;
  policy.deadline_ms = 5000;
  obs::Registry client_registry;
  runtime::ResilientVoterClient submitter(
      Dialer(port), runtime::SystemClock::Instance(),
      "gateway-" + std::to_string(client), policy, /*seed=*/client + 1,
      &client_registry, tracer);
  auto closer = runtime::RemoteVoterClient::ConnectBinary("127.0.0.1", port);
  if (!closer.ok() || !submitter.Ping().ok()) {
    out.mismatch = "gateway connect failed";
    return;
  }
  (void)closer->SetRequestTimeoutMs(1000);
  EndToEnd& e2e = out.e2e;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRequestsPerSecond));
  const auto timed = [&](auto&& call) {
    const Clock::time_point start = Clock::now();
    const bool ok = call();
    if (tracer != nullptr) {
      out.layers.client_wait_ns.Add(ElapsedNs(start, Clock::now()));
    }
    ++e2e.attempted;
    if (!ok) ++e2e.failed;
    return ok;
  };
  for (size_t k = 0; k < plan.requests.size(); ++k) {
    const Request& request = plan.requests[k];
    const GroupInput& group = groups[request.group];
    const Clock::time_point due = t0 + period * static_cast<int64_t>(k);
    // Spin rather than sleep: a sleeping generator wakes late by the
    // host's scheduling latency, which would be charged to the server.
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    out.layers.late_ns.Add(ElapsedNs(due, sent));
    const uint64_t due_by_now =
        static_cast<uint64_t>((sent - t0) / period) + 1;
    out.layers.backlog_max =
        std::max(out.layers.backlog_max, due_by_now - std::min<uint64_t>(
                                                          due_by_now, k + 1));
    bool ok = true;
    for (const Step& step : request.steps) {
      if (!step.readings.empty()) {
        ok &= timed([&] {
          auto accepted = submitter.SubmitBatch(group.name, step.readings);
          return accepted.ok() && *accepted == step.readings.size();
        });
      }
      if (step.close) {
        ok &= timed([&] {
          return closer->CloseRound(group.name, step.close_round).ok();
        });
      }
    }
    const uint64_t ack = ElapsedNs(due, Clock::now());
    ++e2e.acks;
    if (ok) {
      e2e.ack_ns.Add(ack);
      e2e.rounds += request.rounds;
      if (static_cast<double>(ack) <= kAckLimitMs * 1e6) {
        ++e2e.acks_within_limit;
      }
    }
    if (k % kReadEvery != kReadEvery - 1 || !out.mismatch.empty()) continue;
    const size_t fused = request.first_round + request.rounds;
    const Clock::time_point start = Clock::now();
    std::string check;
    bool read_ok = false;
    if ((k / kReadEvery) % 2 == 0) {
      auto range = submitter.QueryRange(group.name, request.first_round,
                                        fused - 1);
      read_ok = range.ok();
      e2e.query_ns.Add(ElapsedNs(start, Clock::now()));
      if (read_ok) {
        check = CheckRange(group, *range, request.first_round, fused - 1);
      }
    } else {
      auto history = submitter.HistoryGet(group.name);
      read_ok = history.ok();
      e2e.query_ns.Add(ElapsedNs(start, Clock::now()));
      if (read_ok) check = CheckHistory(group, history->records, fused);
    }
    ++e2e.attempted;
    if (!read_ok) ++e2e.failed;
    if (!check.empty()) out.mismatch = check;
  }
  out.layers.client_retries += submitter.retry_attempts();
  out.layers.client_reconnects += submitter.reconnects();
}

}  // namespace

Outcome RunFleetOpen(const RunOptions& options) {
  Outcome outcome;
  std::vector<ClientPlan> plans;
  std::vector<GroupInput> groups = MakeGroups(options.seed, plans);
  if (options.perturb_reference) PerturbReference(groups.front());

  size_t steps = 0;
  size_t rounds = 0;
  for (const ClientPlan& plan : plans) {
    for (const Request& r : plan.requests) {
      steps += r.steps.size();
      rounds += r.rounds;
    }
  }
  EndToEnd e2e;
  Layers layers;
  RunEpochs(options, 6 * steps + rounds, e2e, layers, outcome,
            [&](obs::Tracer* tracer, EndToEnd& total,
                Layers* layer_out) -> std::string {
              HostedServer hosted;
              const Clock::time_point setup = Clock::now();
              std::string error =
                  StartServer(groups, tracer, nullptr, nullptr, hosted);
              total.setup_ns.Add(ElapsedNs(setup, Clock::now()));
              if (!error.empty()) return error;
              for (const GroupInput& g : groups) {
                if (hosted.server->shard_of(g.name) != ShardOf(g.name)) {
                  return "group placement differs from the planned shard";
                }
              }
              std::vector<ClientResult> results(kClients);
              std::vector<std::thread> threads;
              const Clock::time_point t0 =
                  Clock::now() + std::chrono::milliseconds(20);
              for (size_t c = 0; c < kClients; ++c) {
                threads.emplace_back([&, c] {
                  DriveClient(c, hosted.server->port(), plans[c], groups,
                              tracer, t0, results[c]);
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
                if (layer_out == nullptr) continue;
                if (tracer == nullptr) {
                  layer_out->late_ns.Append(r.layers.late_ns);
                  layer_out->backlog_max = std::max(layer_out->backlog_max,
                                                    r.layers.backlog_max);
                } else {
                  layer_out->client_wait_ns.Append(r.layers.client_wait_ns);
                  layer_out->client_retries += r.layers.client_retries;
                  layer_out->client_reconnects += r.layers.client_reconnects;
                }
              }
              if (layer_out != nullptr && tracer != nullptr) {
                CollectServer(hosted, *layer_out);
              }
              if (error.empty()) error = CheckSinks(hosted, groups);
              return error;
            });

  std::vector<Request> requests;
  for (const ClientPlan& plan : plans) {
    requests.insert(requests.end(), plan.requests.begin(),
                    plan.requests.end());
  }
  ReportRun(options, e2e, layers, groups, requests, /*sequenced=*/true,
            outcome);
  return outcome;
}

}  // namespace perfbench
