// Totality of consensus algorithms (Section 4.2, Lemma 4.1).
//
// An algorithm is total when every decision event's causal chain contains
// a message from every process that has not crashed by the decision time:
// nobody decides without having consulted (directly or transitively)
// everyone still alive. Lemma 4.1 proves every consensus algorithm using a
// realistic detector in the unbounded-crash environment is total; the
// checker below audits recorded traces for exactly that property, and the
// consulted-fraction statistics quantify how close non-total baselines
// (the <>S majority algorithm, the P< chain) come.
#pragma once

#include <string>

#include "common/stats.hpp"
#include "sim/trace.hpp"

namespace rfd::red {

struct TotalityReport {
  std::int64_t decisions = 0;
  std::int64_t total_decisions = 0;
  std::int64_t non_total_decisions = 0;
  /// |consulted ∩ alive| / |alive| per decision (1.0 for total decisions).
  Summary consulted_fraction;
  /// One human-readable example of a non-total decision, if any.
  std::string example;

  bool all_total() const { return non_total_decisions == 0 && decisions > 0; }
};

/// Audits every decision event of `instance` in the trace. The deciding
/// process counts as consulted trivially.
TotalityReport check_totality(const sim::Trace& trace, InstanceId instance);

}  // namespace rfd::red
