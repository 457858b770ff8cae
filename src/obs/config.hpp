// Configuration for the streaming observability layer.
//
// The instrumentation points are always compiled in; every hot-path emit
// site is guarded by a single pointer test against a null sink, so a
// trace-off run pays one predictable branch per site and nothing else -
// no formatting, no I/O, no allocation.
#pragma once

#include <string>

namespace rfd::obs {

struct Config {
  /// JSONL trace output path; empty disables the trace sink entirely.
  std::string trace_path;
  /// Write a `snap` record of the cluster report so far every this many
  /// check ticks; 0 disables snapshots.
  int snapshot_every_ticks = 0;
  /// Enable the scoped phase timers around the hot spots. Their rollups
  /// carry wall-clock times, so profile records are the one part of a
  /// trace that is *not* byte-identical across runs; keep this off when
  /// diffing traces.
  bool profile = false;

  bool trace_enabled() const { return !trace_path.empty(); }
};

}  // namespace rfd::obs
