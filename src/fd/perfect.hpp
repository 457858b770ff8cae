// The class P of Perfect failure detectors (Chandra-Toueg):
//   strong completeness - every crashed process is eventually permanently
//     suspected by every correct process;
//   strong accuracy - no process is suspected before it crashes.
//
// This oracle suspects q at observer o exactly when q crashed at least
// delay(o, q) ticks ago, with a per-(observer, target) detection delay
// drawn deterministically from [min_detection_delay, max_detection_delay].
// Accuracy holds because delays are non-negative; realism holds
// structurally (only PastView is consulted).
#pragma once

#include "fd/oracle.hpp"

namespace rfd::fd {

struct PerfectParams {
  Tick min_detection_delay = 0;
  Tick max_detection_delay = 4;
};

class PerfectOracle final : public RealisticOracle {
 public:
  PerfectOracle(const model::FailurePattern& pattern, std::uint64_t seed,
                PerfectParams params = {});

  std::string name() const override { return "P"; }

  /// The deterministic detection delay for the (observer, target) pair.
  Tick detection_delay(ProcessId observer, ProcessId target) const {
    return delays_(observer, target);
  }

 protected:
  FdValue query_past(ProcessId observer, Tick t,
                     const model::PastView& past) const override;

 private:
  DetectionDelays delays_;
};

OracleFactory make_perfect_factory(PerfectParams params = {});

}  // namespace rfd::fd
