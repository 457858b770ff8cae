// The class <>S of Eventually Strong failure detectors:
//   strong completeness, plus *eventual weak* accuracy - there is a time
//   after which SOME correct process is never suspected by anyone.
//
// The immune process at tick t is the smallest-id process not crashed by t
// (a function of the past, so realistic); once crashes stop it stabilizes
// to the smallest correct process. Non-immune alive processes keep being
// falsely suspected forever (churn noise), which keeps this detector
// genuinely weaker than <>P: eventual *strong* accuracy fails.
// Pre-convergence even the immune process may be suspected, which keeps it
// weaker than S: plain weak accuracy fails.
#pragma once

#include "fd/oracle.hpp"

namespace rfd::fd {

struct EventuallyStrongParams {
  Tick convergence_tick = 60;
  /// False-suspicion probability; applies to everyone before convergence
  /// and to non-immune alive processes forever after.
  double churn_prob = 0.25;
  Tick churn_period = 5;
  Tick min_detection_delay = 1;
  Tick max_detection_delay = 5;
};

class EventuallyStrongOracle final : public RealisticOracle {
 public:
  EventuallyStrongOracle(const model::FailurePattern& pattern,
                         std::uint64_t seed,
                         EventuallyStrongParams params = {});

  std::string name() const override { return "<>S"; }

  Tick detection_delay(ProcessId observer, ProcessId target) const {
    return delays_(observer, target);
  }
  Tick convergence_tick() const { return params_.convergence_tick; }

 protected:
  FdValue query_past(ProcessId observer, Tick t,
                     const model::PastView& past) const override;

 private:
  bool churn_suspects(ProcessId observer, ProcessId target, Tick t) const;

  EventuallyStrongParams params_;
  DetectionDelays delays_;
};

OracleFactory make_eventually_strong_factory(
    EventuallyStrongParams params = {});

}  // namespace rfd::fd
