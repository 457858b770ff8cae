#include "sim/adversary.hpp"

#include "common/assert.hpp"

namespace rfd::sim {

RandomAdversary::RandomAdversary(std::uint64_t seed, double lambda_prob)
    : rng_(seed), lambda_prob_(lambda_prob) {
  RFD_REQUIRE(lambda_prob >= 0.0 && lambda_prob < 1.0);
}

ProcessId RandomAdversary::pick_process(const ProcessSet& candidates) {
  const ProcessId count = candidates.count();
  RFD_REQUIRE(count > 0);
  // The k-th member in id order, as indexing members() would pick.
  std::int64_t k = rng_.below(count);
  ProcessId picked = -1;
  candidates.for_each([&](ProcessId p) {
    if (k-- == 0) picked = p;
  });
  return picked;
}

MessageId RandomAdversary::pick_message(
    ProcessId /*p*/, const std::vector<MessageId>& deliverable) {
  if (deliverable.empty() || rng_.chance(lambda_prob_)) {
    return kNoMessage;
  }
  return deliverable[static_cast<std::size_t>(
      rng_.below(static_cast<std::int64_t>(deliverable.size())))];
}

ProcessId RoundRobinAdversary::pick_process(const ProcessSet& candidates) {
  RFD_REQUIRE(!candidates.empty());
  const ProcessId n = candidates.universe_size();
  for (ProcessId offset = 0; offset < n; ++offset) {
    const ProcessId p = static_cast<ProcessId>((next_ + offset) % n);
    if (candidates.contains(p)) {
      next_ = static_cast<ProcessId>((p + 1) % n);
      return p;
    }
  }
  RFD_UNREACHABLE("no candidate process");
}

MessageId RoundRobinAdversary::pick_message(
    ProcessId /*p*/, const std::vector<MessageId>& deliverable) {
  return deliverable.empty() ? kNoMessage : deliverable.front();
}

}  // namespace rfd::sim
