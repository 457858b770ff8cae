#include "fd/cheating_strong.hpp"

#include "common/assert.hpp"

namespace rfd::fd {

CheatingStrongOracle::CheatingStrongOracle(const model::FailurePattern& pattern,
                                           std::uint64_t seed,
                                           CheatingStrongParams params)
    : ClairvoyantOracle(pattern, seed),
      params_(params),
      delays_(*this, /*salt=*/0x5caffu, params.min_detection_delay,
              params.max_detection_delay),
      // Future knowledge: the immune process is the smallest-id process
      // that will never crash in this pattern.
      immune_(pattern.correct().min()) {
  RFD_REQUIRE(params.churn_period > 0);
}

bool CheatingStrongOracle::churn_suspects(ProcessId observer, ProcessId target,
                                          Tick t) const {
  const auto epoch = static_cast<std::uint64_t>(t / params_.churn_period);
  const std::uint64_t h =
      noise(static_cast<std::uint64_t>(observer) | 1u << 21,
            static_cast<std::uint64_t>(target), epoch);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < params_.churn_prob;
}

FdValue CheatingStrongOracle::query_full(ProcessId observer, Tick t,
                                         const model::FullView& full) const {
  FdValue out;
  out.suspects = ProcessSet(n());
  const std::span<const Tick> delay = delays_.row(observer);
  for (ProcessId q = 0; q < n(); ++q) {
    const Tick crash = full.pattern().crash_tick(q);
    if (crash != kNever && crash + delay[static_cast<std::size_t>(q)] <= t) {
      out.suspects.insert(q);
      continue;
    }
    if (q == observer || q == immune_) continue;
    if (churn_suspects(observer, q, t)) {
      out.suspects.insert(q);
    }
  }
  return out;
}

OracleFactory make_cheating_strong_factory(CheatingStrongParams params) {
  return [params](const model::FailurePattern& pattern, std::uint64_t seed) {
    return std::make_unique<CheatingStrongOracle>(pattern, seed, params);
  };
}

}  // namespace rfd::fd
