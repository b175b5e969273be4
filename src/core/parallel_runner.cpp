#include "core/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace uvmsim {

void run_indexed(std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 unsigned threads) {
  if (count == 0) return;

  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, count));

  // Work-stealing by shared counter: each worker claims the next
  // unclaimed index, and the body writes only that index's own slot, so
  // result order is the index order no matter which worker finishes when.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  std::mutex error_mutex;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads == 1) {
    worker();  // degenerate pool: run inline, same claiming loop
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::vector<RunResult> run_parallel(const std::vector<RunJob>& jobs,
                                    unsigned threads) {
  std::vector<std::function<RunResult()>> tasks;
  tasks.reserve(jobs.size());
  for (const auto& job : jobs) {
    tasks.push_back([&job] {
      System system(job.config);
      return system.run(job.spec);
    });
  }
  return run_tasks(tasks, threads);
}

}  // namespace uvmsim
