#include "fd/perfect.hpp"

namespace rfd::fd {

PerfectOracle::PerfectOracle(const model::FailurePattern& pattern,
                             std::uint64_t seed, PerfectParams params)
    : RealisticOracle(pattern, seed),
      delays_(*this, /*salt=*/0x9e1ec7, params.min_detection_delay,
              params.max_detection_delay) {}

FdValue PerfectOracle::query_past(ProcessId observer, Tick t,
                                  const model::PastView& past) const {
  FdValue out;
  out.suspects = ProcessSet(n());
  const std::span<const Tick> delay = delays_.row(observer);
  for (ProcessId q = 0; q < n(); ++q) {
    const Tick crash = past.crash_tick_if_past(q);
    if (crash != kNever && crash + delay[static_cast<std::size_t>(q)] <= t) {
      out.suspects.insert(q);
    }
  }
  return out;
}

OracleFactory make_perfect_factory(PerfectParams params) {
  return [params](const model::FailurePattern& pattern, std::uint64_t seed) {
    return std::make_unique<PerfectOracle>(pattern, seed, params);
  };
}

}  // namespace rfd::fd
