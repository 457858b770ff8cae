#include "fd/partially_perfect.hpp"

namespace rfd::fd {

PartiallyPerfectOracle::PartiallyPerfectOracle(
    const model::FailurePattern& pattern, std::uint64_t seed,
    PartiallyPerfectParams params)
    : RealisticOracle(pattern, seed),
      delays_(*this, /*salt=*/0x91eu, params.min_detection_delay,
              params.max_detection_delay) {}

FdValue PartiallyPerfectOracle::query_past(ProcessId observer, Tick t,
                                           const model::PastView& past) const {
  FdValue out;
  out.suspects = ProcessSet(n());
  // Only processes with a *smaller* id are ever suspected: p_j gets
  // completeness information about p_i exactly when j > i.
  const std::span<const Tick> delay = delays_.row(observer);
  for (ProcessId q = 0; q < observer; ++q) {
    const Tick crash = past.crash_tick_if_past(q);
    if (crash != kNever && crash + delay[static_cast<std::size_t>(q)] <= t) {
      out.suspects.insert(q);
    }
  }
  return out;
}

OracleFactory make_partially_perfect_factory(PartiallyPerfectParams params) {
  return [params](const model::FailurePattern& pattern, std::uint64_t seed) {
    return std::make_unique<PartiallyPerfectOracle>(pattern, seed, params);
  };
}

}  // namespace rfd::fd
