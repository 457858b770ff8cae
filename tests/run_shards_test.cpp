// rt::run_shards: every shard runs once, shard 0 on the calling thread,
// the lowest shard's exception wins, and the sharded engine's failure
// protocol over std::barrier releases a shard parked in a barrier.
#include <atomic>
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/shards.hpp"

namespace rfd::rt {
namespace {

TEST(RunShards, RunsEveryShardOnce) {
  std::vector<std::atomic<int>> hits(4);
  run_shards(4, [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(hits[static_cast<std::size_t>(s)].load(), 1) << "shard " << s;
  }
}

TEST(RunShards, SingleShardRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  run_shards(1, [&](int s) {
    EXPECT_EQ(s, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(RunShards, LowestShardExceptionPropagates) {
  try {
    run_shards(3, [](int s) {
      if (s >= 1) throw std::runtime_error("shard " + std::to_string(s));
    });
    FAIL() << "expected the shard exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");
  }
}

TEST(RunShards, SimultaneousExceptionsReleaseAParkedShard) {
  // The engine's failure protocol: three shards throw at once while
  // shard 0 waits in a std::barrier for them. Each sets the flag and
  // drops from the barrier before it throws, so shard 0's phase
  // completes, shard 0 reads the flag and returns, and the join
  // rethrows the lowest shard's exception whichever throw came first.
  constexpr int kShards = 4;
  for (int trial = 0; trial < 5; ++trial) {
    std::barrier<> barrier(kShards);
    std::atomic<bool> failed{false};
    int meetings = 0;
    try {
      run_shards(kShards, [&](int s) {
        if (s == 0) {
          do {
            barrier.arrive_and_wait();
            ++meetings;
          } while (!failed.load(std::memory_order_relaxed));
          return;
        }
        failed.store(true, std::memory_order_relaxed);
        barrier.arrive_and_drop();
        throw std::runtime_error("shard " + std::to_string(s));
      });
      FAIL() << "expected the shard exception to be rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1");
    }
    // One phase, completed by shard 0's arrival and the three drops:
    // the barrier orders every drop's flag store before shard 0's read.
    EXPECT_EQ(meetings, 1) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rfd::rt
