// parallel_for: static round-robin fork-join helper over an index range
// (thread t handles begin+t, begin+t+threads, ...; no work stealing, no
// shared queue).
//
// The experiment drivers use it to fan independent (mix, scheme, config)
// runs over hardware threads.  It degenerates to a plain serial loop when
// one thread is available or requested, or when the range is too small for
// the `grain` parameter to justify spawning workers — both paths keep
// single-CPU CI hosts deterministic and spare tiny ranges the
// thread-creation overhead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace delta {

namespace detail {

/// First-exception capture slot shared by the worker pool.  The annotated
/// mutex lets clang's -Wthread-safety prove that `error_` is only touched
/// under the lock; the separate relaxed flag keeps the workers' fast-path
/// poll lock-free.
class ErrorSlot {
 public:
  /// Records the current in-flight exception if none was captured yet and
  /// flags every worker to stop picking up new indices.
  void capture() EXCLUDES(mu_) {
    {
      const common::LockGuard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// After all workers joined: the first captured exception (or null).
  std::exception_ptr take() EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    return error_;
  }

 private:
  common::Mutex mu_;
  std::exception_ptr error_ GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

}  // namespace detail

/// Invokes `body(i)` for every i in [begin, end) using up to `threads`
/// worker threads (0 == hardware_concurrency).  Blocks until all complete.
/// `body` must be safe to call concurrently for distinct indices.
///
/// `grain` is the minimum number of indices worth giving each worker: the
/// pool is capped at n / grain threads, so a range smaller than `grain`
/// runs serially on the calling thread and spawns nothing.  Use it when
/// each body invocation is cheap relative to thread start-up.
///
/// Exceptions: if any invocation throws, the first exception (by completion
/// order) is rethrown on the calling thread after every worker has joined.
/// Remaining workers stop picking up new indices once a failure is flagged,
/// so a throwing body cannot terminate the process the way an escaping
/// exception on a std::thread would.
inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body,
                         unsigned threads = 0, std::size_t grain = 1) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  unsigned hw = threads == 0 ? std::thread::hardware_concurrency() : threads;
  if (hw == 0) hw = 1;
  if (hw > n) hw = static_cast<unsigned>(n);
  if (grain > 1) {
    const std::size_t cap = n / grain;
    if (hw > cap) hw = cap == 0 ? 1 : static_cast<unsigned>(cap);
  }
  if (hw <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::ErrorSlot error;
  std::vector<std::thread> pool;
  pool.reserve(hw);
  for (unsigned t = 0; t < hw; ++t) {
    pool.emplace_back([&, t] {
      // Static round-robin assignment: thread t handles begin+t, begin+t+hw, ...
      for (std::size_t i = begin + t; i < end; i += hw) {
        if (error.failed()) return;
        try {
          body(i);
        } catch (...) {
          error.capture();
          return;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (std::exception_ptr e = error.take()) std::rethrow_exception(e);
}

/// Contiguous slice [begin, end) of an n-element range for worker `part` of
/// `parts`.  The first n % parts workers get one extra element, so any two
/// calls with the same (n, parts) tile the range exactly — the static
/// scheduling used by the intra-run epoch engine, where *which* worker runs
/// a shard must not affect results, only wall-clock.
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

inline IndexRange static_partition(std::size_t n, unsigned parts,
                                   unsigned part) {
  if (parts == 0) parts = 1;
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  const std::size_t extra = part < rem ? part : rem;
  const std::size_t lo = static_cast<std::size_t>(part) * base + extra;
  return {lo, lo + base + (part < rem ? 1 : 0)};
}

/// Generation-counted reusable barrier: `parties` threads block in
/// arrive_and_wait() until all have arrived, then all release together and
/// the barrier resets for the next cycle.  The mutex hand-off at each
/// release is also the memory fence the worker pool relies on: writes made
/// before a thread arrives are visible to every thread after release.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(unsigned parties) : parties_(parties == 0 ? 1 : parties) {}
  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  void arrive_and_wait() EXCLUDES(mu_) {
    common::UniqueLock lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    while (generation_ == gen) cv_.wait(lock);
  }

 private:
  common::Mutex mu_;
  std::condition_variable_any cv_;
  const unsigned parties_;
  unsigned arrived_ GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
};

/// Deterministic sequential claim word for the work-stealing schedulers.
///
/// One SeqClaim guards one ordered chain of work units (e.g. the round-range
/// tasks of a single cache bank, which must apply in ascending order).  The
/// word packs `(next_unit << 1) | busy`: a worker may only claim the exact
/// unit the chain has advanced to, so units always execute in sequence no
/// matter which worker wins the race — *which* thread runs a unit can vary,
/// *what order* units run in cannot, and that is the whole byte-identity
/// argument for stealing.
///
/// Memory ordering: try_claim() acquires (the winner sees everything the
/// previous unit's complete() released) and complete() releases the unit's
/// writes to the next claimant.  A failed try_claim carries no ordering.
///
/// Units are capped at 2^31-1 per chain — epoch round counts are orders of
/// magnitude below that.
class SeqClaim {
 public:
  /// Resets the chain to `unit` (not thread-safe; call between sections).
  void reset(std::uint32_t unit = 0) {
    word_.store(unit << 1, std::memory_order_relaxed);
  }

  /// Lower bound of the next unclaimed unit (racy snapshot; monotone).
  std::uint32_t next_unit() const {
    return word_.load(std::memory_order_relaxed) >> 1;
  }

  /// True while some worker holds a claimed-but-incomplete unit.
  bool busy() const { return (word_.load(std::memory_order_relaxed) & 1u) != 0; }

  /// Attempts to claim `unit`; succeeds only when the chain is exactly at
  /// `unit` and idle.  The winner must eventually call complete(unit).
  bool try_claim(std::uint32_t unit) {
    std::uint32_t expected = unit << 1;
    return word_.compare_exchange_strong(expected, (unit << 1) | 1u,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  /// Marks `unit` finished and opens unit+1 for claiming, publishing the
  /// unit's writes to whichever worker claims next.
  void complete(std::uint32_t unit) {
    word_.store((unit + 1) << 1, std::memory_order_release);
  }

 private:
  std::atomic<std::uint32_t> word_{0};
};

/// Persistent fork-join pool for repeated fine-grained parallel sections.
///
/// `parallel_for` spawns and joins threads per call, which is fine for
/// sweep-granularity work (one job = a whole simulation) but far too
/// expensive inside an epoch loop that forks thousands of times per run.
/// WorkerPool keeps `parties - 1` threads parked on a barrier between
/// sections; `run(fn)` wakes them, executes `fn(worker)` on every party
/// (the calling thread doubles as worker 0), and returns once all are done.
///
/// Exceptions thrown by `fn` are captured per worker and rethrown on the
/// caller in worker-index order — deterministic, unlike first-completion
/// order.  `parties() == 1` degenerates to a plain inline call with no
/// threads and no synchronization.
///
/// A pool instance may only be driven from one thread at a time; the
/// intra-run engine owns one pool per Chip, matching that contract.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned parties)
      : parties_(parties == 0 ? 1 : parties),
        start_(parties_),
        done_(parties_),
        errors_(parties_) {
    threads_.reserve(parties_ - 1);
    for (unsigned w = 1; w < parties_; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    if (parties_ > 1) {
      stop_ = true;  // Published to workers by the start barrier's mutex.
      start_.arrive_and_wait();
      for (auto& th : threads_) th.join();
    }
  }

  unsigned parties() const { return parties_; }

  void run(const std::function<void(unsigned)>& fn) {
    if (parties_ == 1) {
      fn(0);
      return;
    }
    fn_ = &fn;
    start_.arrive_and_wait();
    invoke(0);
    done_.arrive_and_wait();
    fn_ = nullptr;
    for (unsigned w = 0; w < parties_; ++w) {
      if (errors_[w]) {
        const std::exception_ptr e = errors_[w];
        for (auto& slot : errors_) slot = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

 private:
  void worker_loop(unsigned w) {
    for (;;) {
      start_.arrive_and_wait();
      if (stop_) return;
      invoke(w);
      done_.arrive_and_wait();
    }
  }

  void invoke(unsigned w) {
    try {
      (*fn_)(w);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
  }

  const unsigned parties_;
  CyclicBarrier start_;
  CyclicBarrier done_;
  // Both written by the caller strictly before a start-barrier arrival and
  // read by workers strictly after release, so the barrier orders them.
  const std::function<void(unsigned)>* fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // Slot w: written only by worker w.
  std::vector<std::thread> threads_;
};

}  // namespace delta
