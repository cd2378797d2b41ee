// Fixed-size worker pool for the round-synchronous simulator.
//
// The pool owns `num_workers - 1` std::threads; the calling thread acts as
// worker 0, so a 1-worker pool spawns nothing and runs inline. Dispatch is
// barrier-based: run(fn) publishes fn, releases every worker through a
// start barrier, executes fn(0) itself, and joins the workers at a
// completion barrier before returning — so each run() is a synchronous
// parallel section and no task outlives the call.
//
// Exceptions thrown inside fn on any worker are captured and the first one
// (lowest worker index) is rethrown on the calling thread after all
// workers reach the completion barrier, so CONGEST contract violations
// (CheckError) surface exactly as they do single-threaded.
#pragma once

#include <barrier>
#include <exception>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"

namespace arbods {

class WorkerPool {
 public:
  /// `num_workers` >= 1 total workers including the calling thread.
  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Executes fn(w) once for every worker index w in [0, num_workers),
  /// concurrently; returns after all have finished. Not reentrant. The
  /// callable is taken by non-owning reference (dispatch allocates
  /// nothing); it must stay alive until run() returns, which every
  /// synchronous caller guarantees.
  void run(FunctionRef<void(int)> fn);

 private:
  void worker_loop(int index);

  int num_workers_ = 1;
  FunctionRef<void(int)> fn_;
  bool stop_ = false;
  std::barrier<> start_;
  std::barrier<> done_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

}  // namespace arbods
