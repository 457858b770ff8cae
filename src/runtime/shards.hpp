// Fork-join over the shards of the sharded engine.
//
// run_shards() runs one body per shard and joins them: shard 0 on the
// calling thread, the others on threads that live for the one call. It
// holds no pool and no synchronization of its own; shards that meet
// each other bring their own barriers (cluster/engine.cpp uses two
// std::barriers per check window).
#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace rfd::rt {

/// Runs body(s) for every shard s in [0, shards) concurrently and
/// returns once every body has returned. If any body threw, the lowest
/// shard's exception is rethrown after the join. The join waits for
/// every shard, so a body that throws must first release any peer that
/// waits for it.
template <typename Body>
void run_shards(int shards, Body&& body) {
  RFD_REQUIRE(shards >= 1);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(shards));
  const auto run = [&](int s) noexcept {
    try {
      body(s);
    } catch (...) {
      errors[static_cast<std::size_t>(s)] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(shards - 1));
    // A failed spawn terminates instead of unwinding: the unwinding join
    // would wait for shards that already started and may wait at a
    // barrier for the shard that never did.
    [&]() noexcept {
      for (int s = 1; s < shards; ++s) threads.emplace_back(run, s);
    }();
    run(0);
  }  // the jthreads join here
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

}  // namespace rfd::rt
