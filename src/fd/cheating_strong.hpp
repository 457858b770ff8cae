// A Strong-but-not-Perfect failure detector, necessarily clairvoyant.
//
// Class S demands strong completeness plus *weak* accuracy: some correct
// process is never suspected. This oracle picks its immune process as the
// smallest-id *correct* process - information about the future - and
// freely (falsely) suspects everyone else while they are alive. It is in
// S, it violates strong accuracy (so it is not in P), and it is not
// realistic.
//
// Its purpose is Section 6.3: within the realistic space no such detector
// can exist - a realistic detector that falsely suspects p at time t must
// also be a history of the pattern where everyone but p crashes at t+1,
// where that suspicion breaks weak accuracy. Hence S ∩ R ⊂ P, and this
// class is the counterexample showing the intersection with R is what does
// the collapsing.
#pragma once

#include "fd/oracle.hpp"

namespace rfd::fd {

struct CheatingStrongParams {
  double churn_prob = 0.3;
  Tick churn_period = 5;
  Tick min_detection_delay = 1;
  Tick max_detection_delay = 5;
};

class CheatingStrongOracle final : public ClairvoyantOracle {
 public:
  CheatingStrongOracle(const model::FailurePattern& pattern,
                       std::uint64_t seed, CheatingStrongParams params = {});

  std::string name() const override { return "S(cheat)"; }

  Tick detection_delay(ProcessId observer, ProcessId target) const {
    return delays_(observer, target);
  }

 protected:
  FdValue query_full(ProcessId observer, Tick t,
                     const model::FullView& full) const override;

 private:
  bool churn_suspects(ProcessId observer, ProcessId target, Tick t) const;

  CheatingStrongParams params_;
  DetectionDelays delays_;
  ProcessId immune_;
};

OracleFactory make_cheating_strong_factory(CheatingStrongParams params = {});

}  // namespace rfd::fd
