#include "fd/eventually_perfect.hpp"

#include "common/assert.hpp"

namespace rfd::fd {

EventuallyPerfectOracle::EventuallyPerfectOracle(
    const model::FailurePattern& pattern, std::uint64_t seed,
    EventuallyPerfectParams params)
    : RealisticOracle(pattern, seed),
      params_(params),
      delays_(*this, /*salt=*/0xd1ffu, params.min_detection_delay,
              params.max_detection_delay) {
  RFD_REQUIRE(params.convergence_tick >= 0);
  RFD_REQUIRE(params.churn_period > 0);
}

bool EventuallyPerfectOracle::churn_suspects(ProcessId observer,
                                             ProcessId target, Tick t) const {
  const auto epoch = static_cast<std::uint64_t>(t / params_.churn_period);
  const std::uint64_t h = noise(static_cast<std::uint64_t>(observer),
                                static_cast<std::uint64_t>(target), epoch);
  // Map hash to [0,1) and compare with churn probability.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < params_.churn_prob;
}

FdValue EventuallyPerfectOracle::query_past(ProcessId observer, Tick t,
                                            const model::PastView& past) const {
  FdValue out;
  out.suspects = ProcessSet(n());
  const std::span<const Tick> delay = delays_.row(observer);
  for (ProcessId q = 0; q < n(); ++q) {
    const Tick crash = past.crash_tick_if_past(q);
    if (crash != kNever && crash + delay[static_cast<std::size_t>(q)] <= t) {
      out.suspects.insert(q);
      continue;
    }
    // Pre-convergence churn: falsely suspect alive processes (never self).
    if (t < params_.convergence_tick && q != observer &&
        churn_suspects(observer, q, t)) {
      out.suspects.insert(q);
    }
  }
  return out;
}

OracleFactory make_eventually_perfect_factory(EventuallyPerfectParams params) {
  return [params](const model::FailurePattern& pattern, std::uint64_t seed) {
    return std::make_unique<EventuallyPerfectOracle>(pattern, seed, params);
  };
}

}  // namespace rfd::fd
