#include "fd/marabout.hpp"

namespace rfd::fd {

MaraboutOracle::MaraboutOracle(const model::FailurePattern& pattern,
                               std::uint64_t seed)
    : ClairvoyantOracle(pattern, seed), faulty_(pattern.faulty()) {}

FdValue MaraboutOracle::query_full(ProcessId /*observer*/, Tick /*t*/,
                                   const model::FullView& /*full*/) const {
  FdValue out;
  out.suspects = faulty_;
  return out;
}

OracleFactory make_marabout_factory() {
  return [](const model::FailurePattern& pattern, std::uint64_t seed) {
    return std::make_unique<MaraboutOracle>(pattern, seed);
  };
}

}  // namespace rfd::fd
