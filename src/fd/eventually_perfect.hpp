// The class <>P of Eventually Perfect failure detectors:
//   strong completeness, plus *eventual* strong accuracy - there is a time
//   after which no alive process is suspected.
//
// Before `convergence_tick` the oracle injects false suspicions (churn
// noise re-drawn every churn_period ticks, mimicking aggressive timeouts
// during an unstable period); from convergence_tick on it behaves exactly
// like the PerfectOracle. Realistic by construction.
#pragma once

#include "fd/oracle.hpp"

namespace rfd::fd {

struct EventuallyPerfectParams {
  Tick convergence_tick = 60;
  double churn_prob = 0.3;
  Tick churn_period = 5;
  Tick min_detection_delay = 1;
  Tick max_detection_delay = 5;
};

class EventuallyPerfectOracle final : public RealisticOracle {
 public:
  EventuallyPerfectOracle(const model::FailurePattern& pattern,
                          std::uint64_t seed,
                          EventuallyPerfectParams params = {});

  std::string name() const override { return "<>P"; }

  Tick detection_delay(ProcessId observer, ProcessId target) const {
    return delays_(observer, target);
  }
  Tick convergence_tick() const { return params_.convergence_tick; }

 protected:
  FdValue query_past(ProcessId observer, Tick t,
                     const model::PastView& past) const override;

 private:
  bool churn_suspects(ProcessId observer, ProcessId target, Tick t) const;

  EventuallyPerfectParams params_;
  DetectionDelays delays_;
};

OracleFactory make_eventually_perfect_factory(
    EventuallyPerfectParams params = {});

}  // namespace rfd::fd
