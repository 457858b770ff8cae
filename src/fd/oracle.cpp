#include "fd/oracle.hpp"

namespace rfd::fd {

DetectionDelays::DetectionDelays(const Oracle& oracle, std::uint64_t salt,
                                 Tick min_delay, Tick max_delay)
    : n_(oracle.n()),
      table_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_)) {
  RFD_REQUIRE(min_delay >= 0 && min_delay <= max_delay);
  const auto choices = static_cast<std::uint64_t>(max_delay - min_delay) + 1;
  for (ProcessId o = 0; o < n_; ++o) {
    for (ProcessId q = 0; q < n_; ++q) {
      const std::uint64_t draw =
          oracle.noise(static_cast<std::uint64_t>(o),
                       static_cast<std::uint64_t>(q), salt) %
          choices;
      table_[static_cast<std::size_t>(o * n_ + q)] =
          min_delay + static_cast<Tick>(draw);
    }
  }
}

}  // namespace rfd::fd
