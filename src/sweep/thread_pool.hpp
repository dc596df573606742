// A small fixed-size thread pool.
//
// Workers are started once and reused across submissions, so sweeps that
// dispatch thousands of cells (a full paper-table Monte Carlo grid) pay the
// thread-creation cost once instead of per batch. The pool makes no
// ordering promises — determinism is the sweep layer's job (every cell
// derives all of its randomness from its own index, never from which
// worker runs it or when).
//
// Lanes: each worker owns a stable lane id — its index in the workers_
// vector, fixed at pool construction and reused for the pool's lifetime.
// Per-lane metrics (sweep.pool.lane_*_seconds{lane="N"}) and profiler
// sample tags both key off this id, so an attribution report and a folded
// profile dump name the same thread the same way.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rfidsim::sweep {

/// Fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Lane id reported by current_lane() on threads that are not pool
  /// workers (the orchestrating thread, test mains).
  static constexpr std::size_t kNotALane = static_cast<std::size_t>(-1);

  /// Starts `threads` workers; 0 means the hardware concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw (a worker has nowhere to
  /// deliver the exception); wrap fallible work and capture errors by
  /// slot, the way parallel_for cells write into their own result index.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing (not merely
  /// been dequeued).
  void wait_idle();

  /// The calling thread's lane id: the worker's construction-time index
  /// for pool workers, kNotALane everywhere else. Stable for the worker's
  /// whole life — metric labels and profiler dumps agree on it.
  static std::size_t current_lane();

 private:
  /// A queued task plus its enqueue stamp, so the executing lane can
  /// attribute the task's time in queue (submit -> dequeue) to itself.
  struct PendingTask {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  struct LaneMetrics;

  void worker_loop(std::size_t lane);

  /// One per worker, registered by the constructor before any worker
  /// starts; empty when the pool was built with obs hooks off.
  std::vector<LaneMetrics> lane_metrics_;
  std::vector<std::thread> workers_;
  std::deque<PendingTask> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;  ///< Queued + currently executing tasks.
  bool stopping_ = false;
};

}  // namespace rfidsim::sweep
