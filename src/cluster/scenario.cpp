#include "cluster/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace rfd::cluster {
namespace {

void require_time(double at_ms) {
  RFD_REQUIRE_MSG(std::isfinite(at_ms) && at_ms >= 0.0,
                  "fault event time must be finite and >= 0");
}

/// Endpoint-set key for link pairing: sorted, deduplicated - the same
/// normalization Network::remove_link_block matches rules by.
std::vector<NodeId> normalized(const std::vector<NodeId>& ids) {
  std::vector<NodeId> out = ids;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Scenario& Scenario::crash(double at_ms, NodeId node) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kCrash;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::recover(double at_ms, NodeId node) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kRecover;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::partition(double at_ms,
                              std::vector<std::vector<NodeId>> groups) {
  require_time(at_ms);
  RFD_REQUIRE(groups.size() >= 2);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kPartition;
  e.groups = std::move(groups);
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::heal(double at_ms) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kHeal;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::join(double at_ms, NodeId node) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kJoin;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::leave(double at_ms, NodeId node) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kLeave;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::storm_on(double at_ms, double extra_delay_ms,
                             double delay_prob) {
  require_time(at_ms);
  RFD_REQUIRE(extra_delay_ms >= 0.0);
  RFD_REQUIRE(delay_prob >= 0.0 && delay_prob <= 1.0);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kStormStart;
  e.extra_delay_ms = extra_delay_ms;
  e.delay_prob = delay_prob;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::storm_off(double at_ms) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kStormEnd;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::delay_storm(double from_ms, double to_ms,
                                double extra_delay_ms, double delay_prob) {
  RFD_REQUIRE(to_ms > from_ms);
  // Window-pairing discipline (the storm state on the network is a single
  // scalar pair, so overlapping windows would silently corrupt each
  // other) is checked by validate() over the *sorted* timeline - the old
  // insertion-order check here broke down as soon as windows were
  // appended out of time order.
  return storm_on(from_ms, extra_delay_ms, delay_prob).storm_off(to_ms);
}

Scenario& Scenario::link_down(double at_ms, std::vector<NodeId> from,
                              std::vector<NodeId> to) {
  require_time(at_ms);
  RFD_REQUIRE(!from.empty() && !to.empty());
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kLinkDown;
  e.groups.push_back(std::move(from));
  e.groups.push_back(std::move(to));
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::link_up(double at_ms, std::vector<NodeId> from,
                            std::vector<NodeId> to) {
  require_time(at_ms);
  RFD_REQUIRE(!from.empty() && !to.empty());
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kLinkUp;
  e.groups.push_back(std::move(from));
  e.groups.push_back(std::move(to));
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::slow(double at_ms, NodeId node, double factor) {
  require_time(at_ms);
  RFD_REQUIRE(factor > 0.0);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kSlowStart;
  e.node = node;
  e.factor = factor;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::slow_end(double at_ms, NodeId node) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kSlowEnd;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::lie(double at_ms, NodeId node, double delta) {
  require_time(at_ms);
  RFD_REQUIRE_MSG(std::isfinite(delta), "lie delta must be finite");
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kLieStart;
  e.node = node;
  e.factor = delta;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::lie_end(double at_ms, NodeId node) {
  require_time(at_ms);
  FaultEvent e;
  e.at_ms = at_ms;
  e.kind = FaultKind::kLieEnd;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::flapping_link(double from_ms, double to_ms,
                                  double period_ms, double duty,
                                  std::vector<NodeId> a,
                                  std::vector<NodeId> b) {
  require_time(from_ms);
  RFD_REQUIRE(to_ms > from_ms);
  RFD_REQUIRE(period_ms > 0.0);
  RFD_REQUIRE(duty >= 0.0 && duty <= 1.0);
  RFD_REQUIRE(!a.empty() && !b.empty());
  if (duty >= 1.0) return *this;  // never down
  // Each period is up for duty*period, then down (both directions) for
  // the rest; a window that would still be down at to_ms is cut short so
  // the flap leaves no block installed.
  for (double t = from_ms; t < to_ms; t += period_ms) {
    const double down_at = t + duty * period_ms;
    if (down_at >= to_ms) break;
    const double up_at = std::min(t + period_ms, to_ms);
    link_down(down_at, a, b);
    link_down(down_at, b, a);
    link_up(up_at, a, b);
    link_up(up_at, b, a);
  }
  return *this;
}

Scenario& Scenario::overload_ramp(double from_ms, double to_ms, int steps,
                                  double peak_extra_ms, double prob) {
  require_time(from_ms);
  RFD_REQUIRE(to_ms > from_ms);
  RFD_REQUIRE(steps >= 1);
  RFD_REQUIRE(peak_extra_ms >= 0.0);
  const double span = to_ms - from_ms;
  for (int i = 0; i < steps; ++i) {
    storm_on(from_ms + span * i / steps,
             peak_extra_ms * (i + 1) / steps, prob);
  }
  return storm_off(to_ms);
}

std::vector<FaultEvent> Scenario::sorted() const {
  std::vector<FaultEvent> out = events;
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  return out;
}

std::optional<ScenarioIssue> Scenario::check() const {
  // Sort indices, not events, so a violation can name the offending
  // entry of `events` (the DSL parser maps that back to a source line).
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].at_ms < events[b].at_ms;
                   });

  int open_storms = 0;
  std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> links;
  std::vector<NodeId> slowed;
  std::vector<NodeId> lying;
  for (const std::size_t index : order) {
    const FaultEvent& e = events[index];
    if (!std::isfinite(e.at_ms) || e.at_ms < 0.0) {
      return ScenarioIssue{index, "event time must be finite and >= 0"};
    }
    switch (e.kind) {
      case FaultKind::kPartition: {
        if (e.groups.size() < 2) {
          return ScenarioIssue{index, "partition needs >= 2 groups"};
        }
        std::vector<NodeId> all;
        for (const auto& group : e.groups) {
          if (group.empty()) {
            return ScenarioIssue{index, "partition group is empty"};
          }
          all.insert(all.end(), group.begin(), group.end());
        }
        std::sort(all.begin(), all.end());
        if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
          return ScenarioIssue{
              index, "partition groups overlap (a node is in two groups)"};
        }
        break;
      }
      case FaultKind::kStormStart:
        // A start while a storm is open re-sets the parameters - the
        // overload ramp's escalation primitive - so any depth is legal.
        ++open_storms;
        break;
      case FaultKind::kStormEnd:
        if (open_storms == 0) {
          return ScenarioIssue{index, "storm_off without an open storm"};
        }
        open_storms = 0;  // clears the storm whatever the ramp depth
        break;
      case FaultKind::kLinkDown:
        links.emplace_back(normalized(e.groups[0]), normalized(e.groups[1]));
        break;
      case FaultKind::kLinkUp: {
        const auto key = std::make_pair(normalized(e.groups[0]),
                                        normalized(e.groups[1]));
        const auto it = std::find(links.begin(), links.end(), key);
        if (it == links.end()) {
          return ScenarioIssue{
              index, "link_up without a matching installed link_down"};
        }
        links.erase(it);
        break;
      }
      case FaultKind::kSlowStart:
        // Re-slowing an already-slow node re-sets the factor; legal.
        if (std::find(slowed.begin(), slowed.end(), e.node) ==
            slowed.end()) {
          slowed.push_back(e.node);
        }
        break;
      case FaultKind::kSlowEnd: {
        const auto it = std::find(slowed.begin(), slowed.end(), e.node);
        if (it == slowed.end()) {
          return ScenarioIssue{index,
                               "slow_end on a node that is not slowed"};
        }
        slowed.erase(it);
        break;
      }
      case FaultKind::kLieStart:
        // Re-lying re-sets the delta; legal, like slow re-slow.
        if (std::find(lying.begin(), lying.end(), e.node) == lying.end()) {
          lying.push_back(e.node);
        }
        break;
      case FaultKind::kLieEnd: {
        const auto it = std::find(lying.begin(), lying.end(), e.node);
        if (it == lying.end()) {
          return ScenarioIssue{index,
                               "lie_end on a node that is not lying"};
        }
        lying.erase(it);
        break;
      }
      case FaultKind::kExclude:
        return ScenarioIssue{index, "exclude is the engine's own fault"};
      case FaultKind::kCrash:
      case FaultKind::kRecover:
      case FaultKind::kJoin:
      case FaultKind::kLeave:
      case FaultKind::kHeal:
        break;
    }
  }
  return std::nullopt;
}

std::string Scenario::validate() const {
  const std::optional<ScenarioIssue> issue = check();
  if (!issue) return {};
  return "scenario event " + std::to_string(issue->event_index) + " (" +
         fault_kind_name(events[issue->event_index].kind) + " at " +
         std::to_string(events[issue->event_index].at_ms) +
         "ms): " + issue->message;
}

const char* fault_kind_cstr(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kJoin:
      return "join";
    case FaultKind::kLeave:
      return "leave";
    case FaultKind::kStormStart:
      return "storm-start";
    case FaultKind::kStormEnd:
      return "storm-end";
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kSlowStart:
      return "slow-start";
    case FaultKind::kSlowEnd:
      return "slow-end";
    case FaultKind::kLieStart:
      return "lie-start";
    case FaultKind::kLieEnd:
      return "lie-end";
    case FaultKind::kExclude:
      return "exclude";
  }
  return "?";
}

std::string fault_kind_name(FaultKind kind) { return fault_kind_cstr(kind); }

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (int k = 0; k <= static_cast<int>(FaultKind::kExclude); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == fault_kind_cstr(kind)) return kind;
  }
  return std::nullopt;
}

obs::Record fault_record(const FaultEvent& event, double t) {
  obs::Record r;
  r.type = obs::RecordType::kFault;
  r.t = t;
  r.s = fault_kind_cstr(event.kind);
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kJoin:
    case FaultKind::kLeave:
    case FaultKind::kExclude:
      r.a = event.node;
      break;
    case FaultKind::kPartition:
      r.c = static_cast<std::int64_t>(event.groups.size());
      break;
    case FaultKind::kStormStart:
      r.x = event.extra_delay_ms;
      r.y = event.delay_prob;
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      // Representative endpoints (the first listed id of each side) plus
      // the blocked-pair population; enough to line faults up with the
      // reason-tagged "link" drop records that follow.
      r.a = event.groups[0].front();
      r.b = event.groups[1].front();
      r.c = static_cast<std::int64_t>(event.groups[0].size()) *
            static_cast<std::int64_t>(event.groups[1].size());
      break;
    case FaultKind::kSlowStart:
    case FaultKind::kLieStart:
      r.a = event.node;
      r.x = event.factor;
      break;
    case FaultKind::kSlowEnd:
    case FaultKind::kLieEnd:
      r.a = event.node;
      break;
    case FaultKind::kHeal:
    case FaultKind::kStormEnd:
      break;
  }
  return r;
}

Scenario multi_crash_scenario(int n, int crashes, double at_ms) {
  RFD_REQUIRE(crashes >= 0 && crashes < n);
  Scenario s;
  // Victims spread across the id space so hierarchical clusters and ring
  // neighbourhoods each lose at most a few members.
  for (int i = 0; i < crashes; ++i) {
    const NodeId victim =
        static_cast<NodeId>((static_cast<std::int64_t>(i) * n) / crashes +
                            n / (2 * crashes));
    s.crash(at_ms, victim);
  }
  return s;
}

}  // namespace rfd::cluster
