// Scripted fault injection for the cluster engine.
//
// A Scenario is a time-ordered list of fault events replayed against the
// running cluster: crashes, crash-recoveries, network partitions and
// heals, churn (joins and silent leaves), delay storms, directed link
// blocks (asymmetric partitions, flapping links), and slow-but-alive
// nodes. Scenarios are plain data - the engine interprets them - so
// experiments are scriptable and bit-for-bit reproducible under a fixed
// seed. They can also be loaded from text files via the scenario DSL
// (see cluster/scenario_dsl.hpp and the scenarios/ library).
//
// Builders return *this so scripts read like a timeline:
//
//   Scenario s;
//   s.partition(5'000, {{0,1,2,3},{4,5,6,7}})
//    .crash(8'000, 2)
//    .heal(12'000)
//    .delay_storm(20'000, 25'000, 300.0, 0.5);
//
// Events may be appended in any order: the engine consumes the timeline
// through sorted(), which stable-sorts by time (same-time events keep
// script order). Cross-event discipline - storm and link pairing, group
// overlap - is checked by validate(), which the engine requires to pass
// before a run starts, so a malformed timeline fails loudly instead of
// silently corrupting network state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/record.hpp"
#include "runtime/network.hpp"

namespace rfd::cluster {

using rt::NodeId;

enum class FaultKind {
  kCrash,        // node stops sending and receiving (fail-stop)
  kRecover,      // crashed node restarts with empty peer memory
  kPartition,    // install component masks on the network
  kHeal,         // remove the partition
  kJoin,         // a fresh node id becomes active and contacts the cluster
  kLeave,        // node departs silently (indistinguishable from a crash)
  kStormStart,   // extra per-message delay with some probability
  kStormEnd,
  kLinkDown,     // directed block: groups[0] -> groups[1] messages drop
  kLinkUp,       // remove the matching directed block
  kSlowStart,    // slow-but-alive: outbound delay multiplier on `node`
  kSlowEnd,      // restore the node's outbound delay to normal
  kLieStart,     // Byzantine-ish: node advertises a wrong counter that
                 // moves by `factor` per heartbeat interval (jump or
                 // regress instead of the honest +1)
  kLieEnd,       // node resumes advertising its true counter
  kExclude,      // the group fenced `node` (ClusterConfig::exclusion): a
                 // crash the engine applies, never a scenario's event
};

struct FaultEvent {
  double at_ms = 0.0;
  FaultKind kind = FaultKind::kCrash;
  NodeId node = -1;                          // crash/recover/join/leave/slow
  std::vector<std::vector<NodeId>> groups;   // partition; link: {from, to}
  double extra_delay_ms = 0.0;               // storm
  double delay_prob = 1.0;                   // storm
  double factor = 1.0;                       // slow multiplier / lie delta

  bool operator==(const FaultEvent&) const = default;
};

/// A cross-event discipline violation found by Scenario::check(), with
/// the offending event's index into `events` so loaders (the DSL parser)
/// can attribute it to a source line.
struct ScenarioIssue {
  std::size_t event_index = 0;
  std::string message;
};

struct Scenario {
  std::vector<FaultEvent> events;

  Scenario& crash(double at_ms, NodeId node);
  Scenario& recover(double at_ms, NodeId node);
  Scenario& partition(double at_ms, std::vector<std::vector<NodeId>> groups);
  Scenario& heal(double at_ms);
  Scenario& join(double at_ms, NodeId node);
  Scenario& leave(double at_ms, NodeId node);
  Scenario& delay_storm(double from_ms, double to_ms, double extra_delay_ms,
                        double delay_prob);
  /// Raw storm primitives: storm_on sets (or re-sets, for ramps) the
  /// storm parameters, storm_off clears them. delay_storm is the paired
  /// convenience over these.
  Scenario& storm_on(double at_ms, double extra_delay_ms, double delay_prob);
  Scenario& storm_off(double at_ms);
  /// Directed link block from every node in `from` to every node in `to`
  /// (a one-way/asymmetric partition when used alone; install both
  /// directions for a symmetric cut that composes with other blocks).
  Scenario& link_down(double at_ms, std::vector<NodeId> from,
                      std::vector<NodeId> to);
  Scenario& link_up(double at_ms, std::vector<NodeId> from,
                    std::vector<NodeId> to);
  /// Slow-but-alive: multiply `node`'s outbound delays by `factor` (> 1
  /// models an overloaded-but-responsive process) until slow_end.
  Scenario& slow(double at_ms, NodeId node, double factor);
  Scenario& slow_end(double at_ms, NodeId node);
  /// Byzantine-ish wrong heartbeats: from at_ms the node keeps running
  /// but its *advertised* counter moves by `delta` per heartbeat interval
  /// instead of the honest +1 (delta > 1 jumps ahead, delta < 0
  /// regresses, delta == 0 freezes the advertisement). The true counter
  /// keeps advancing underneath, so after lie_end the node heals itself.
  Scenario& lie(double at_ms, NodeId node, double delta);
  Scenario& lie_end(double at_ms, NodeId node);

  /// Flapping link between sets `a` and `b`: over [from_ms, to_ms), each
  /// `period_ms` window is up for `duty` of the period then down (both
  /// directions) for the rest. Expands to link_down/link_up pairs.
  Scenario& flapping_link(double from_ms, double to_ms, double period_ms,
                          double duty, std::vector<NodeId> a,
                          std::vector<NodeId> b);

  /// Cascading overload: `steps` storm escalations over [from_ms, to_ms),
  /// ramping the extra delay linearly up to `peak_extra_ms` (each step
  /// re-sets the storm), then clearing at to_ms.
  Scenario& overload_ramp(double from_ms, double to_ms, int steps,
                          double peak_extra_ms, double prob);

  /// Events sorted by time (stable, so same-time events keep script order).
  std::vector<FaultEvent> sorted() const;

  /// Checks cross-event discipline over the sorted timeline: storm_off
  /// and link_up/slow_end must match an open storm/block/slowdown, and
  /// partition groups must be disjoint. Returns the first violation, or
  /// nullopt for a well-formed timeline.
  std::optional<ScenarioIssue> check() const;

  /// Human-readable check(): empty string when well-formed. The engine
  /// requires this to be empty before running.
  std::string validate() const;
};

std::string fault_kind_name(FaultKind kind);
/// Static-lifetime kind name, safe to stash in a deferred-formatting
/// obs::Record.
const char* fault_kind_cstr(FaultKind kind);
/// Inverse of fault_kind_cstr (a trace's `kind` field); nullopt when
/// `name` names no kind.
std::optional<FaultKind> fault_kind_from_name(std::string_view name);

/// Trace record for `event` as applied at sim time `t` (the schema's
/// "fault" record; see obs/record.hpp and the README record tables).
obs::Record fault_record(const FaultEvent& event, double t);

/// Canned scenario: crash `crashes` distinct nodes (spread over the id
/// space) at `at_ms`. Handy for the scaling bench.
Scenario multi_crash_scenario(int n, int crashes, double at_ms);

}  // namespace rfd::cluster
