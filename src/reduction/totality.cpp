#include "reduction/totality.hpp"

namespace rfd::red {
namespace {

void audit_decision(const sim::Trace& trace, const sim::DecisionRef& d,
                    TotalityReport& report) {
  ++report.decisions;
  ProcessSet consulted = trace.causal_message_senders(d.event);
  consulted.insert(d.process);
  const ProcessSet alive = trace.pattern().alive_at(d.time);
  const ProcessSet missing = alive - consulted;

  const double fraction =
      alive.count() == 0
          ? 1.0
          : static_cast<double>((alive & consulted).count()) /
                static_cast<double>(alive.count());
  report.consulted_fraction.add(fraction);

  if (missing.empty()) {
    ++report.total_decisions;
  } else {
    ++report.non_total_decisions;
    if (report.example.empty()) {
      report.example = "p" + std::to_string(d.process) + " decided " +
                       std::to_string(d.value) + " at t=" +
                       std::to_string(d.time) + " without consulting " +
                       missing.to_string();
    }
  }
}

}  // namespace

TotalityReport check_totality(const sim::Trace& trace, InstanceId instance) {
  TotalityReport report;
  for (const auto& d : trace.decisions_of_instance(instance)) {
    audit_decision(trace, d, report);
  }
  return report;
}

}  // namespace rfd::red
