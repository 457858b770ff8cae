#include "runtime/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace rfd::rt {

namespace {

/// Heap order: the root is the earliest (at, seq).
constexpr auto later = [](const auto& lhs, const auto& rhs) {
  if (lhs.at != rhs.at) return lhs.at > rhs.at;
  return lhs.seq > rhs.seq;
};

}  // namespace

void EventQueue::schedule(double at, Action action) {
  RFD_REQUIRE_MSG(std::isfinite(at), "event time must be finite");
  if (at < now_) at = now_;  // clamp: runs at the current clock, in order
  heap_.push_back({at, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::run_until(double t_end) {
  while (!heap_.empty() && heap_.front().at <= t_end) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event event = std::move(heap_.back());
    heap_.pop_back();
    now_ = event.at;
    ++executed_;
    event.action();  // may schedule more events, including at now()
  }
  now_ = t_end;
}

}  // namespace rfd::rt
