#include "common/shutdown.hpp"

#include <atomic>
#include <csignal>

namespace rfd {
namespace {

// Reads and writes of a lock-free atomic are async-signal-safe, so the
// handler sets the same flag ClusterConfig::stop can point at.
std::atomic<bool> g_shutdown{false};
static_assert(std::atomic<bool>::is_always_lock_free);

extern "C" void rfd_shutdown_handler(int /*signum*/) {
  if (g_shutdown.exchange(true, std::memory_order_relaxed)) {
    // Second signal: the wind-down is taking too long for the operator's
    // taste. Restore default dispositions so the next one terminates.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
}

}  // namespace

void install_shutdown_handlers() {
  std::signal(SIGINT, &rfd_shutdown_handler);
  std::signal(SIGTERM, &rfd_shutdown_handler);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void request_shutdown() { g_shutdown.store(true, std::memory_order_relaxed); }

void reset_shutdown() { g_shutdown.store(false, std::memory_order_relaxed); }

const std::atomic<bool>& shutdown_flag() { return g_shutdown; }

}  // namespace rfd
