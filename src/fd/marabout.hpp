// The Marabout M (Section 3.2.2, after [Guerraoui 2001]): at every process
// and every time, M outputs the constant list of processes that have
// crashed *or will crash* in the failure pattern. M belongs to <>P and to
// S, yet it is accurate about the future rather than the past, so it is
// incomparable with P and it is NOT realistic: two patterns that agree up
// to t but diverge later already produce different outputs at time 0.
//
// M is the paper's witness that the lower bounds of Sections 4 and 5 need
// the realism restriction: consensus and TRB are solvable with M under
// unbounded crashes (see algo/consensus/marabout_consensus) even though M
// cannot be transformed into P.
#pragma once

#include "fd/oracle.hpp"

namespace rfd::fd {

class MaraboutOracle final : public ClairvoyantOracle {
 public:
  MaraboutOracle(const model::FailurePattern& pattern, std::uint64_t seed);

  std::string name() const override { return "Marabout"; }

 protected:
  FdValue query_full(ProcessId observer, Tick t,
                     const model::FullView& full) const override;

 private:
  ProcessSet faulty_;  // the constant output, faulty(F)
};

OracleFactory make_marabout_factory();

}  // namespace rfd::fd
