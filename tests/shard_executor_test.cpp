#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "runtime/shard_executor.hpp"

namespace rfd::rt {
namespace {

TEST(ShardExecutor, RunsEveryShardOncePerInvocation) {
  ShardExecutor executor(4);
  ASSERT_EQ(executor.shards(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 1; round <= 3; ++round) {
    executor.run([&](int s) { ++hits[static_cast<std::size_t>(s)]; });
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(hits[static_cast<std::size_t>(s)].load(), round);
    }
  }
}

TEST(ShardExecutor, SingleShardRunsOnCallingThread) {
  ShardExecutor executor(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  executor.run([&](int s) {
    EXPECT_EQ(s, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ShardExecutor, BarrierSequencesPhasesAcrossShards) {
  // The engine's correctness hinges on this: values shard A writes in
  // phase N are visible to shard B in phase N+1 with no synchronization
  // beyond the run() barrier. Each shard writes its slot in phase
  // one; every shard sums all slots in phase two.
  constexpr int kShards = 4;
  constexpr int kRounds = 200;
  ShardExecutor executor(kShards);
  std::vector<int> slots(kShards, 0);       // plain ints on purpose
  std::vector<long long> sums(kShards, 0);  // one writer each
  for (int round = 1; round <= kRounds; ++round) {
    executor.run(
        [&](int s) { slots[static_cast<std::size_t>(s)] = round * (s + 1); });
    executor.run([&](int s) {
      long long sum = 0;
      for (const int v : slots) sum += v;
      sums[static_cast<std::size_t>(s)] = sum;
    });
    const long long expected =
        static_cast<long long>(round) * kShards * (kShards + 1) / 2;
    for (int s = 0; s < kShards; ++s) {
      ASSERT_EQ(sums[static_cast<std::size_t>(s)], expected)
          << "round " << round << " shard " << s;
    }
  }
}

TEST(ShardExecutor, LowestShardExceptionPropagates) {
  ShardExecutor executor(3);
  try {
    executor.run([](int s) {
      if (s >= 1) throw std::runtime_error("shard " + std::to_string(s));
    });
    FAIL() << "expected the shard exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");
  }
  // The pool survives a throwing invocation.
  std::atomic<int> hits{0};
  executor.run([&](int) { ++hits; });
  EXPECT_EQ(hits.load(), 3);
}

TEST(ShardExecutor, WorkerResidentLoopStressSpinThenPark) {
  // The engine's worker-resident shape: one run() dispatch, shards
  // looping rounds against the executor's SpinBarrier. A deliberately
  // tiny spin budget plus randomized per-shard stalls forces every
  // combination of fast-path spin release and futex park/wake, while
  // the phase-data check proves each release is a full memory barrier
  // (writes before arrival visible to every shard after it).
  constexpr int kShards = 4;
  constexpr int kRounds = 150;
  ShardExecutor executor(kShards);
  executor.set_spin_iterations(64);
  SpinBarrier& barrier = executor.barrier();
  std::vector<int> slots(kShards, 0);  // plain ints on purpose
  std::atomic<int> mismatches{0};
  executor.run([&](int s) {
    std::mt19937 rng(static_cast<unsigned>(7919 * (s + 1)));
    for (int round = 1; round <= kRounds; ++round) {
      if ((rng() & 3u) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 300));
      }
      slots[static_cast<std::size_t>(s)] = round * (s + 1);
      if (!barrier.arrive_and_wait()) return;
      long long sum = 0;
      for (const int v : slots) sum += v;
      if (sum != static_cast<long long>(round) * kShards * (kShards + 1) / 2) {
        ++mismatches;
      }
      // Second barrier: next round's writes must not race this read.
      if (!barrier.arrive_and_wait()) return;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardExecutor, SimultaneousExceptionsPickLowestShard) {
  // Three shards throw at once while shard 0 sits parked (spin budget
  // 0) in the barrier: the abort must futex-wake it with a false
  // return, and the join must rethrow the lowest-shard exception no
  // matter which throw won the race. Repeated to exercise the barrier
  // reset/reuse path after each abort.
  constexpr int kShards = 4;
  ShardExecutor executor(kShards);
  executor.set_spin_iterations(0);
  for (int trial = 0; trial < 5; ++trial) {
    try {
      executor.run([&](int s) {
        if (s == 0) {
          while (executor.barrier().arrive_and_wait()) {
          }
          return;  // released by the abort, never a normal release
        }
        throw std::runtime_error("shard " + std::to_string(s));
      });
      FAIL() << "expected the shard exception to be rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1");
    }
  }
  // The pool and barrier survive every aborted invocation.
  std::atomic<int> hits{0};
  executor.run([&](int) { ++hits; });
  EXPECT_EQ(hits.load(), kShards);
}

TEST(ShardExecutor, ThreadLogBuffersCaptureWorkerLines) {
  // Worker-thread log lines must not race the process-wide sink; the
  // engine parks them in per-shard buffers and flushes at the barrier.
  constexpr int kShards = 4;
  ShardExecutor executor(kShards);
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  std::vector<std::vector<BufferedLogLine>> buffers(kShards);
  executor.run([&](int s) {
    const ScopedThreadLogBuffer scope(&buffers[static_cast<std::size_t>(s)]);
    RFD_LOG(kInfo) << "hello from shard " << s;
    RFD_LOG(kDebug) << "suppressed";  // below the level: not buffered
  });
  set_log_level(saved);
  for (int s = 0; s < kShards; ++s) {
    const auto& lines = buffers[static_cast<std::size_t>(s)];
    ASSERT_EQ(lines.size(), 1u) << "shard " << s;
    EXPECT_EQ(lines[0].level, LogLevel::kInfo);
    EXPECT_NE(lines[0].line.find("hello from shard"), std::string::npos);
  }
}

}  // namespace
}  // namespace rfd::rt
