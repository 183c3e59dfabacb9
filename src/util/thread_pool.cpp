#include "util/thread_pool.hpp"

#include <stdexcept>

namespace pv {
namespace {

thread_local int t_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
    if (workers == 0) throw std::invalid_argument("ThreadPool needs at least one worker");
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
}

void ThreadPool::worker_main(unsigned index) {
    t_worker_index = static_cast<int>(index);
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stopping_ && queue_.empty()) wake_.wait(mutex_);
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop();
            ++active_;
        }
        task();  // packaged_task: exceptions land in the future
        {
            MutexLock lock(mutex_);
            --active_;
        }
        idle_.notify_all();
    }
}

void ThreadPool::wait_idle() {
    MutexLock lock(mutex_);
    while (!queue_.empty() || active_ != 0) idle_.wait(mutex_);
}

int ThreadPool::current_worker_index() { return t_worker_index; }

unsigned ThreadPool::default_worker_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4u : hw;
}

}  // namespace pv
