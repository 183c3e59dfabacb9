// PlugVolt — reusable fixed-size worker pool.
//
// The simulator itself stays single-threaded (that is its determinism
// contract); the pool exists for embarrassingly parallel *drivers* that
// run many independent simulator instances — above all the sharded
// characterization sweep, where every frequency row is an independent
// experiment (on real hardware the machine reboots between rows anyway).
//
// Tasks are queued FIFO and executed by `size()` long-lived threads.
// submit() returns a std::future carrying the task's result; exceptions
// thrown by a task are captured and rethrown from future::get(), never
// swallowed.  Destruction drains the queue: every task submitted before
// the destructor runs is completed, then the threads join.
#pragma once

#include <functional>
#include <future>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pv {

class ThreadPool {
public:
    /// Spin up `workers` threads (must be >= 1).
    explicit ThreadPool(unsigned workers);

    /// Completes all queued tasks, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] unsigned size() const { return static_cast<unsigned>(threads_.size()); }

    /// Queue a task; the future resolves with its return value (or
    /// rethrows what it threw).  Throws std::runtime_error if the pool
    /// is shutting down.
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
        using R = std::invoke_result_t<std::decay_t<F>&>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> result = task->get_future();
        {
            MutexLock lock(mutex_);
            if (stopping_) throw std::runtime_error("submit() on a stopped ThreadPool");
            queue_.emplace([task] { (*task)(); });
        }
        wake_.notify_one();
        return result;
    }

    /// Block until the queue is empty and no task is executing.
    void wait_idle() PV_EXCLUDES(mutex_);

    /// Index of the pool worker the calling thread is (0..size-1), or
    /// -1 when called from a thread that is not a pool worker.  Lets a
    /// task reach per-worker state (e.g. its own simulator instance)
    /// without locking.
    [[nodiscard]] static int current_worker_index();

    /// Sensible default worker count: hardware_concurrency, with a
    /// fallback of 4 when the runtime cannot tell.
    [[nodiscard]] static unsigned default_worker_count();

private:
    void worker_main(unsigned index) PV_EXCLUDES(mutex_);

    std::vector<std::thread> threads_;
    mutable Mutex mutex_;
    std::queue<std::function<void()>> queue_ PV_GUARDED_BY(mutex_);
    CondVar wake_;
    CondVar idle_;
    unsigned active_ PV_GUARDED_BY(mutex_) = 0;
    bool stopping_ PV_GUARDED_BY(mutex_) = false;
};

}  // namespace pv
