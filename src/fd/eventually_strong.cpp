#include "fd/eventually_strong.hpp"

#include "common/assert.hpp"

namespace rfd::fd {

EventuallyStrongOracle::EventuallyStrongOracle(
    const model::FailurePattern& pattern, std::uint64_t seed,
    EventuallyStrongParams params)
    : RealisticOracle(pattern, seed),
      params_(params),
      delays_(*this, /*salt=*/0xe51u, params.min_detection_delay,
              params.max_detection_delay) {
  RFD_REQUIRE(params.convergence_tick >= 0);
  RFD_REQUIRE(params.churn_period > 0);
}

bool EventuallyStrongOracle::churn_suspects(ProcessId observer,
                                            ProcessId target, Tick t) const {
  const auto epoch = static_cast<std::uint64_t>(t / params_.churn_period);
  const std::uint64_t h = noise(static_cast<std::uint64_t>(observer) | 1u << 20,
                                static_cast<std::uint64_t>(target), epoch);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < params_.churn_prob;
}

FdValue EventuallyStrongOracle::query_past(ProcessId observer, Tick t,
                                           const model::PastView& past) const {
  // The candidate immune process: smallest id not crashed by t. This is a
  // function of the past only; it stabilizes to the smallest correct
  // process once crashes stop.
  const ProcessSet alive = past.crashed_by(t).complement();
  const ProcessId immune = alive.min();

  FdValue out;
  out.suspects = ProcessSet(n());
  const std::span<const Tick> delay = delays_.row(observer);
  for (ProcessId q = 0; q < n(); ++q) {
    const Tick crash = past.crash_tick_if_past(q);
    if (crash != kNever && crash + delay[static_cast<std::size_t>(q)] <= t) {
      out.suspects.insert(q);
      continue;
    }
    if (q == observer) continue;
    const bool immune_now = (q == immune) && (t >= params_.convergence_tick);
    if (!immune_now && churn_suspects(observer, q, t)) {
      out.suspects.insert(q);
    }
  }
  return out;
}

OracleFactory make_eventually_strong_factory(EventuallyStrongParams params) {
  return [params](const model::FailurePattern& pattern, std::uint64_t seed) {
    return std::make_unique<EventuallyStrongOracle>(pattern, seed, params);
  };
}

}  // namespace rfd::fd
