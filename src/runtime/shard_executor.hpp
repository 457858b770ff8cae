// Fork-join driver and spin barrier for the sharded simulation core.
//
// A ShardExecutor owns a persistent pool of worker threads (one per shard
// beyond the first; shard 0 always runs on the calling thread). run()
// dispatches one callback per shard and joins them all — since the
// worker-resident round loop landed, the engine calls run() exactly once
// per simulation and the shards synchronize among themselves through the
// executor's SpinBarrier, so the mutex+condvar pool handoff is paid once
// per run instead of twice per check tick.
//
// SpinBarrier is a generation-counter barrier: arrivals spin briefly on
// the generation atomic (bounded by spin_iterations, with periodic
// yields so oversubscribed hosts make progress), then park in
// std::atomic::wait — futex-backed on Linux — until the last arriver
// bumps the generation and notifies. abort() releases every current and
// future waiter with a `false` return so a shard that threw can drain
// its peers out of the loop (the generation bump that publishes the
// abort is a release RMW sequenced after the aborted store, so any
// waiter that observes the new generation also observes aborted()).
//
// Memory model: arrive_and_wait() is a full barrier — every write a
// shard makes before arriving happens-before every read any shard makes
// after leaving (release fetch_add on arrival, acquire load of the
// generation on exit) — so phases may freely read data other shards
// wrote in the previous phase (mailboxes, outboxes) without further
// synchronization, exactly as the old per-phase mutex handoff provided.
//
// shards == 1 bypasses the pool entirely: run() is a direct call and
// arrive_and_wait() returns immediately, so the single-threaded path
// pays nothing for the machinery.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rfd::rt {

/// Architecture pause hint for spin loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Non-owning reference to a `void(int shard)` callable. Replaces
/// std::function in the executor API: no allocation, no virtual call
/// beyond one indirect branch, and a stable identity the engine can
/// construct once per run. The referenced callable must outlive every
/// use of the FnRef (trivially true for run(), which finishes before
/// the caller's full-expression ends).
class FnRef {
 public:
  /// Empty reference; calling it is undefined. Used as the executor's
  /// idle job slot.
  FnRef() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FnRef>>>
  FnRef(F&& f)  // NOLINT(google-explicit-constructor): by-design implicit
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, int shard) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(shard);
        }) {}

  void operator()(int shard) const { call_(obj_, shard); }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, int) = nullptr;
};

/// Sense-free generation-counter barrier with bounded spin then futex
/// park. Reusable across any number of waits; reset() rearms it after
/// an abort.
class SpinBarrier {
 public:
  /// Default spin budget before parking. Chosen so a barrier whose
  /// peers arrive within a few microseconds never enters the kernel;
  /// hosts reporting <= 1 hardware thread get 0 (park immediately —
  /// spinning can only steal the cycles the other shard needs).
  static int default_spin_iterations();

  explicit SpinBarrier(int parties)
      : parties_(parties), spin_iterations_(default_spin_iterations()) {}

  int parties() const { return parties_; }

  /// 0 parks immediately (measures the condvar-style cost floor);
  /// larger values spin longer before the futex wait.
  void set_spin_iterations(int iterations) { spin_iterations_ = iterations; }
  int spin_iterations() const { return spin_iterations_; }

  /// Blocks until all parties arrive (or the barrier is aborted).
  /// Returns true on a normal release, false once aborted — callers
  /// must treat false as "unwind now", and must not arrive again until
  /// reset().
  bool arrive_and_wait() {
    if (parties_ == 1) return !aborted();
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (aborted()) return false;
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_acq_rel);
      gen_.notify_all();
      return !aborted();
    }
    int spins = spin_iterations_;
    while (gen_.load(std::memory_order_acquire) == gen) {
      if (spins > 0) {
        --spins;
        cpu_relax();
        // Periodic yield keeps oversubscribed hosts live-locked-free.
        if ((spins & 1023) == 0) std::this_thread::yield();
      } else {
        gen_.wait(gen, std::memory_order_acquire);
      }
    }
    return !aborted();
  }

  /// Releases every current and future waiter with a false return.
  /// Safe to call from any thread, including concurrently with arrivals.
  void abort() {
    aborted_.store(true, std::memory_order_release);
    // The generation bump both wakes parked waiters and publishes the
    // aborted store to spinners (acquire load of gen_ synchronizes with
    // this release RMW).
    gen_.fetch_add(1, std::memory_order_acq_rel);
    gen_.notify_all();
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Rearms after an abort. Callers must guarantee no thread is inside
  /// arrive_and_wait() (the executor resets between run() invocations).
  void reset() {
    aborted_.store(false, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
  }

 private:
  const int parties_;
  int spin_iterations_;
  alignas(64) std::atomic<std::uint64_t> gen_{0};
  alignas(64) std::atomic<int> arrived_{0};
  std::atomic<bool> aborted_{false};
};

class ShardExecutor {
 public:
  /// Spawns `shards - 1` workers (shard 0 is the caller's thread).
  explicit ShardExecutor(int shards);
  ~ShardExecutor();
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  int shards() const { return shards_; }

  /// The barrier shard callbacks use to synchronize among themselves
  /// (parties == shards()). run() rearms it before each dispatch.
  SpinBarrier& barrier() { return barrier_; }

  /// Forwarded to the barrier; 0 = park immediately (condvar-style).
  void set_spin_iterations(int iterations) {
    barrier_.set_spin_iterations(iterations);
  }

  /// Invokes fn(s) for every shard 0..shards()-1 concurrently and
  /// returns once all invocations finished (a full join). If any
  /// shard's callback throws, the barrier is aborted — peers blocked in
  /// arrive_and_wait() see `false` and are expected to return — and the
  /// lowest-shard exception is rethrown here after the join. The pool
  /// and barrier remain usable for further run() calls.
  void run(FnRef fn);

 private:
  void worker(int shard);
  void run_shard(FnRef fn, int shard);

  const int shards_;
  SpinBarrier barrier_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  FnRef job_;
  bool has_job_ = false;
  std::uint64_t epoch_ = 0;
  int running_ = 0;
  bool stop_ = false;
  /// One slot per shard, written only by that shard's thread during an
  /// invocation and read by the caller after the join.
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

}  // namespace rfd::rt
