#include "runtime/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace rfd::rt {

EventQueue::EventQueue(double tick_ms) : tick_ms_(tick_ms) {
  RFD_REQUIRE(tick_ms > 0.0);
  for (auto& level : wheel_) {
    std::fill(std::begin(level), std::end(level), kNullIndex);
  }
}

std::int64_t EventQueue::tick_for(double at) const {
  std::int64_t tick = static_cast<std::int64_t>(at / tick_ms_);
  // The division can round up across a tick boundary; an event filed one
  // tick high could then run after later-timed events from the next slot.
  // Filing low is always safe (it only enters the ready heap earlier).
  if (static_cast<double>(tick) * tick_ms_ > at) --tick;
  return tick;
}

std::uint32_t EventQueue::allocate(double at, Action action) {
  std::uint32_t idx;
  if (free_head_ != kNullIndex) {
    idx = free_head_;
    free_head_ = slab_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    RFD_REQUIRE_MSG(idx != kNullIndex, "event slab exhausted");
    slab_.emplace_back();
  }
  Event& e = slab_[idx];
  e.at = at;
  e.seq = next_seq_++;
  e.task = std::move(action);
  e.next = kNullIndex;
  ++size_;
  return idx;
}

void EventQueue::release(std::uint32_t idx) {
  Event& e = slab_[idx];
  e.task.reset();
  e.next = free_head_;
  free_head_ = idx;
}

void EventQueue::place(std::uint32_t idx) {
  const Event& e = slab_[idx];
  const std::int64_t tick = tick_for(e.at);
  const std::int64_t delta = tick - collected_tick_;
  if (delta < 0) {
    // Already inside the collected horizon: straight to the ready heap.
    ready_.push({e.at, e.seq, idx});
    return;
  }
  std::int64_t span = kWheelSlots;
  for (int level = 0; level < kWheelLevels; ++level, span <<= kWheelBits) {
    if (delta < span) {
      const int slot =
          static_cast<int>((tick >> (level * kWheelBits)) & (kWheelSlots - 1));
      slab_[idx].next = wheel_[level][slot];
      wheel_[level][slot] = idx;
      ++wheel_count_;
      return;
    }
  }
  // Beyond the wheel range (> ~77 hours at the default granularity):
  // far-future fallback to the heap. The horizon guard in run_until keeps
  // it from running before uncollected wheel events.
  ready_.push({e.at, e.seq, idx});
}

void EventQueue::cascade(int level) {
  if (level >= kWheelLevels) return;  // deeper events live in the heap
  if ((collected_tick_ & ((std::int64_t{1} << ((level + 1) * kWheelBits)) -
                          1)) == 0) {
    cascade(level + 1);
  }
  const int slot = static_cast<int>(
      (collected_tick_ >> (level * kWheelBits)) & (kWheelSlots - 1));
  std::uint32_t idx = wheel_[level][slot];
  wheel_[level][slot] = kNullIndex;
  while (idx != kNullIndex) {
    const std::uint32_t next = slab_[idx].next;
    --wheel_count_;
    place(idx);  // re-files into a finer level (or the ready heap)
    idx = next;
  }
}

void EventQueue::collect_slot() {
  if ((collected_tick_ & (kWheelSlots - 1)) == 0) cascade(1);
  const int slot = static_cast<int>(collected_tick_ & (kWheelSlots - 1));
  std::uint32_t idx = wheel_[0][slot];
  wheel_[0][slot] = kNullIndex;
  while (idx != kNullIndex) {
    const std::uint32_t next = slab_[idx].next;
    --wheel_count_;
    Event& e = slab_[idx];
    e.next = kNullIndex;
    ready_.push({e.at, e.seq, idx});
    idx = next;
  }
  ++collected_tick_;
}

void EventQueue::schedule(double at, Action action) {
  RFD_REQUIRE_MSG(std::isfinite(at), "event time must be finite");
  if (at < now_) at = now_;  // clamp: runs at the current clock, in order
  place(allocate(at, std::move(action)));
}

void EventQueue::run_until(double t_end) { run(t_end, /*exclusive=*/false); }

void EventQueue::run_before(double t) {
  if (t < now_) t = now_;  // never rewind the clock
  run(t, /*exclusive=*/true);
}

void EventQueue::run(double t_end, bool exclusive) {
  const auto runnable = [&](double at) {
    return exclusive ? at < t_end : at <= t_end;
  };
  for (;;) {
    const double horizon = static_cast<double>(collected_tick_) * tick_ms_;
    while (!ready_.empty()) {
      const Ref top = ready_.top();
      if (!runnable(top.at) || top.at >= horizon) break;
      ready_.pop();
      InlineTask task = std::move(slab_[top.idx].task);
      release(top.idx);
      --size_;
      now_ = top.at;
      ++executed_;
      {
        obs::ScopedPhase phase(profiler_, obs::Phase::kDispatch);
        task();  // may schedule more events, including at now()
      }
    }
    if (wheel_count_ == 0) {
      if (ready_.empty() || !runnable(ready_.top().at)) break;
      // Nothing between the horizon and the next heap event: jump the
      // horizon straight past it instead of walking empty slots.
      collected_tick_ =
          std::max(collected_tick_, tick_for(ready_.top().at) + 1);
      continue;
    }
    // Inclusive runs must collect the slot containing t_end itself;
    // exclusive runs only need events strictly below it (everything with
    // at < horizon is already in the ready heap).
    if (exclusive ? horizon >= t_end : horizon > t_end) break;
    collect_slot();
  }
  now_ = t_end;
}

}  // namespace rfd::rt
