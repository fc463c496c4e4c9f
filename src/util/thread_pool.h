// A hot fork-join pool for sharded batch execution.
//
// MultiGroupEngine fans independent voter groups out across these
// threads; nothing here knows about voting.  A wave of 64 groups votes in
// a few milliseconds, while waking a thread parked on a condition
// variable costs ~1.4 ms on a 4-vCPU KVM guest (per-worker start
// timestamps, 256-round replay batches), so a wave cannot start from
// sleep.  Three rules follow:
//
//   * The calling thread is one of the pool's threads: it claims indices
//     alongside the workers instead of blocking until they finish.
//   * Every thread claims the next index from one shared cursor, so a
//     slow vCPU takes fewer indices instead of holding up the wave.
//   * Spin, then park.  After a wave, each worker spins for kSpinWindow
//     waiting for the next one before it parks; the caller likewise spins
//     for the wave's last worker before parking.  Back-to-back waves find
//     every thread awake, and an idle pool costs no CPU.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace avoc::util {

class ThreadPool {
 public:
  /// How long an idle thread waits awake for the next wave (worker) or
  /// for the wave's stragglers (caller) before it parks.
  static constexpr std::chrono::microseconds kSpinWindow{150};

  /// `threads` counts the calling thread, so the pool starts `threads - 1`
  /// workers.  `threads == 0` means one per hardware thread (at least one).
  explicit ThreadPool(size_t threads = 0);

  /// Runs the tasks still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a wave, the calling thread included.
  size_t thread_count() const { return workers_.size() + 1; }

  /// Queues one task for the next Wait().  Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Runs every queued task as one ParallelFor wave (tasks that a task
  /// submits run in a further wave) and returns when all have finished.
  void Wait();

  /// Runs body(0) .. body(count-1) on the pool's threads, the caller
  /// included, and returns when all of them have finished.  Distinct
  /// indices must touch distinct data, and `body` must not throw.  One
  /// thread at a time may call ParallelFor or Wait, and never from inside
  /// a body.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();
  /// Runs indices of the current wave until the cursor passes count_.
  void RunClaims();
  /// Joins the wave open at `generation`; false when it already closed.
  bool TryEnter(uint64_t generation);
  void Leave();

  std::mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_;  // guarded by tasks_mutex_

  // The wave.  body_ and count_ are written by the caller before it opens
  // a wave and read by workers only while inside it; the caller rewrites
  // them only after the last worker has left.
  const std::function<void(size_t)>* body_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};  // claim cursor
  // generation << 32 | kOpen while the wave takes entrants | workers inside
  std::atomic<uint64_t> state_{0};
  std::atomic<bool> stopping_{false};

  // Parking.  A thread about to park announces itself in parked_workers_
  // or caller_parked_ under park_mutex_ before re-checking its predicate;
  // the other side changes state_ first and then reads the announcement,
  // both sequentially consistent, so one of the two sees the other and a
  // wave is never missed while the hot path takes no lock.
  std::mutex park_mutex_;
  std::condition_variable wave_opened_;   // workers park here
  std::condition_variable wave_drained_;  // the caller parks here
  std::atomic<size_t> parked_workers_{0};
  std::atomic<bool> caller_parked_{false};

  std::vector<std::thread> workers_;
};

}  // namespace avoc::util
