// Cooperative SIGINT/SIGTERM shutdown for the long-running binaries.
//
// The soak and the demos want Ctrl-C to mean "finish the current
// window, flush the trace buffer, write the final checkpoint, emit the run
// footer" - not "die mid-write and leave a torn trace". The handler
// therefore only sets an async-signal-safe flag; a driver polls
// shutdown_requested() at its window boundary and winds down normally.
// A second signal while winding down restores the default disposition,
// so a third Ctrl-C always kills a wedged process.
#pragma once

#include <atomic>

namespace rfd {

/// Installs SIGINT/SIGTERM handlers that set the shutdown flag. Safe to
/// call more than once. The first signal sets the flag; the second
/// restores the default handlers (so the next one terminates).
void install_shutdown_handlers();

/// Whether a shutdown signal has arrived since the handlers were
/// installed (or request_shutdown() was called).
bool shutdown_requested();

/// Sets the flag programmatically - lets tests and drivers exercise the
/// graceful-wind-down path without raising a real signal.
void request_shutdown();

/// Clears the flag (test isolation; does not reinstall handlers).
void reset_shutdown();

/// The flag itself - what ClusterConfig::stop wants to point at.
const std::atomic<bool>& shutdown_flag();

}  // namespace rfd
