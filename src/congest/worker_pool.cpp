#include "congest/worker_pool.hpp"

#include "common/check.hpp"

namespace arbods {

WorkerPool::WorkerPool(int num_workers)
    : num_workers_(num_workers),
      start_(num_workers),
      done_(num_workers),
      errors_(static_cast<std::size_t>(num_workers)) {
  ARBODS_CHECK_MSG(num_workers >= 1, "pool needs >= 1 worker");
  threads_.reserve(static_cast<std::size_t>(num_workers - 1));
  for (int w = 1; w < num_workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

WorkerPool::~WorkerPool() {
  if (!threads_.empty()) {
    stop_ = true;
    start_.arrive_and_wait();  // release workers into the stop check
    for (auto& t : threads_) t.join();
  }
}

void WorkerPool::worker_loop(int index) {
  for (;;) {
    start_.arrive_and_wait();
    if (stop_) return;
    try {
      fn_(index);
    } catch (...) {
      errors_[static_cast<std::size_t>(index)] = std::current_exception();
    }
    done_.arrive_and_wait();
  }
}

void WorkerPool::run(FunctionRef<void(int)> fn) {
  if (threads_.empty()) {
    fn(0);
    return;
  }
  fn_ = fn;
  start_.arrive_and_wait();
  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  done_.arrive_and_wait();
  fn_ = FunctionRef<void(int)>();
  for (auto& err : errors_) {
    if (err) {
      std::exception_ptr first = err;
      for (auto& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

}  // namespace arbods
