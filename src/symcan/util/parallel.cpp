#include "symcan/util/parallel.hpp"

#include <chrono>
#include <string>

#include "symcan/obs/obs.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

int ParallelExecutor::resolve(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::size_t ParallelExecutor::auto_tile(std::size_t count, int threads) {
  if (count == 0) return 1;
  const std::size_t slots = static_cast<std::size_t>(threads) * 4;
  const std::size_t tile = (count + slots - 1) / slots;
  if (tile < 1) return 1;
  return tile > 64 ? 64 : tile;
}

ParallelExecutor::ParallelExecutor(int threads) : threads_{resolve(threads)} {
  // The calling thread participates in every run, so the pool holds one
  // worker fewer than the requested width.
  for (int i = 1; i < threads_; ++i)
    workers_.emplace_back([this, i] {
      std::string name = "symcan-worker-";
      append_integer(name, i);
      obs::set_thread_name(name.c_str());
      worker_loop();
    });
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk{m_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::drain(std::size_t count, const std::function<void(std::size_t)>& body) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1);
    if (i >= count) return;
    body(i);
    if (done_.fetch_add(1) + 1 == count) {
      std::lock_guard<std::mutex> lk{m_};
      done_cv_.notify_all();
    }
  }
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lk{m_};
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      count = count_;
      ++active_;
    }
    drain(count, *body);
    {
      std::lock_guard<std::mutex> lk{m_};
      --active_;
    }
    done_cv_.notify_all();
  }
}

void ParallelExecutor::run(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  // Observability: when enabled, dispatch a wrapper that times each task.
  // Handles are fetched once per batch (registry lock), recording inside
  // the wrapper is wait-free; when disabled this whole block is one
  // relaxed load and `effective` aliases `body` untouched.
  const std::function<void(std::size_t)>* effective = &body;
  std::function<void(std::size_t)> timed;
  if (obs::enabled()) {
    auto& m = obs::metrics();
    m.counter("parallel.batches").add(1);
    m.counter("parallel.tasks").add(static_cast<std::int64_t>(count));
    m.gauge("parallel.queue_depth").set(static_cast<double>(count));
    m.gauge("parallel.width").set(static_cast<double>(threads_));
    obs::Histogram& task_us = m.histogram("parallel.task_us");
    // Propagate the caller's trace context into the workers so spans a
    // task records land in the same flow tree as the dispatching span.
    const std::uint64_t flow = obs::current_flow();
    timed = [&body, &task_us, flow](std::size_t i) {
      obs::FlowScope flow_scope{flow};
      const auto t0 = std::chrono::steady_clock::now();
      body(i);
      const auto dt = std::chrono::steady_clock::now() - t0;
      task_us.observe(std::chrono::duration<double, std::micro>(dt).count());
    };
    effective = &timed;
  }

  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) (*effective)(i);
    return;
  }
  {
    std::unique_lock<std::mutex> lk{m_};
    // A straggler from the previous run may still hold a reference to the
    // old body and dispenser; wait until everyone is back in the waiting
    // room before redirecting them.
    done_cv_.wait(lk, [&] { return active_ == 0; });
    body_ = effective;
    count_ = count;
    next_.store(0);
    done_.store(0);
    ++generation_;
  }
  work_cv_.notify_all();
  drain(count, *effective);
  {
    std::unique_lock<std::mutex> lk{m_};
    done_cv_.wait(lk, [&] { return done_.load() >= count; });
  }
}

}  // namespace symcan
