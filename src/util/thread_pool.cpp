#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace avoc::util {
namespace {

constexpr uint64_t kOpen = uint64_t{1} << 31;
constexpr uint64_t kInsideMask = kOpen - 1;
constexpr int kGenerationShift = 32;

uint64_t Generation(uint64_t state) { return state >> kGenerationShift; }

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Spins until ready() holds or ThreadPool::kSpinWindow has passed, reading
// the clock once per 64 polls; returns ready().
template <typename Ready>
bool SpinUntil(const Ready& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      CpuRelax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    stopping_.store(true);
  }
  wave_opened_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(tasks_mutex_);
  tasks_.push_back(std::move(task));
}

void ThreadPool::Wait() {
  for (;;) {
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      tasks.swap(tasks_);
    }
    if (tasks.empty()) return;
    ParallelFor(tasks.size(), [&tasks](size_t i) { tasks[i](); });
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& body) {
  // No worker is inside: the previous wave drained before it returned.
  body_ = &body;
  count_ = count;
  next_.store(0);
  state_.store(((Generation(state_.load()) + 1) << kGenerationShift) | kOpen);
  if (parked_workers_.load() != 0) {
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    wave_opened_.notify_all();
  }
  RunClaims();
  // Every index is claimed.  Close the wave so late workers skip it, then
  // wait for the ones still running an index.
  state_.fetch_and(~kOpen);
  const auto drained = [this] { return (state_.load() & kInsideMask) == 0; };
  if (!SpinUntil(drained)) {
    std::unique_lock<std::mutex> lock(park_mutex_);
    caller_parked_.store(true);
    wave_drained_.wait(lock, drained);
    caller_parked_.store(false);
  }
}

void ThreadPool::RunClaims() {
  for (size_t i = next_.fetch_add(1); i < count_; i = next_.fetch_add(1)) {
    (*body_)(i);
  }
}

bool ThreadPool::TryEnter(uint64_t generation) {
  uint64_t state = state_.load();
  while (Generation(state) == generation && (state & kOpen) != 0) {
    if (state_.compare_exchange_weak(state, state + 1)) return true;
  }
  return false;
}

void ThreadPool::Leave() {
  const uint64_t before = state_.fetch_sub(1);
  if ((before & kInsideMask) == 1 && caller_parked_.load()) {
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    wave_drained_.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;  // generation of the last wave this worker looked at
  const auto woken = [this, &seen] {
    return stopping_.load() || Generation(state_.load()) != seen;
  };
  for (;;) {
    if (!SpinUntil(woken)) {
      std::unique_lock<std::mutex> lock(park_mutex_);
      parked_workers_.fetch_add(1);
      wave_opened_.wait(lock, woken);
      parked_workers_.fetch_sub(1);
    }
    if (stopping_.load()) return;
    seen = Generation(state_.load());
    if (TryEnter(seen)) {
      RunClaims();
      Leave();
    }
  }
}

}  // namespace avoc::util
