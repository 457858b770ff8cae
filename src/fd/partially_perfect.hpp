// The class P< of Partially Perfect failure detectors (Section 6.2):
//   strong accuracy - no process suspected before it crashes;
//   partial completeness - if p_i crashes then eventually every correct
//     p_j with j > i permanently suspects p_i.
//
// Observer p_j only ever suspects processes with smaller ids; in
// particular p_0's module is forever silent. P< is strictly weaker than P
// when crashes are unbounded (p_i learns nothing about p_j for j > i), yet
// it solves *correct-restricted* consensus (see algo/consensus/cr_chain),
// which is the paper's separation between uniform and non-uniform
// consensus. Realistic by construction.
#pragma once

#include "fd/oracle.hpp"

namespace rfd::fd {

struct PartiallyPerfectParams {
  Tick min_detection_delay = 0;
  Tick max_detection_delay = 4;
};

class PartiallyPerfectOracle final : public RealisticOracle {
 public:
  PartiallyPerfectOracle(const model::FailurePattern& pattern,
                         std::uint64_t seed,
                         PartiallyPerfectParams params = {});

  std::string name() const override { return "P<"; }

  Tick detection_delay(ProcessId observer, ProcessId target) const {
    return delays_(observer, target);
  }

 protected:
  FdValue query_past(ProcessId observer, Tick t,
                     const model::PastView& past) const override;

 private:
  DetectionDelays delays_;
};

OracleFactory make_partially_perfect_factory(
    PartiallyPerfectParams params = {});

}  // namespace rfd::fd
