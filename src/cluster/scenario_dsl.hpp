// The scenario DSL: fault timelines as data.
//
// A scenario file is a line-oriented script - one statement per line,
// `#` comments - that expands into the engine's primitive FaultEvents.
// Making timelines loadable text turns them into a corpus: the checked-in
// scenarios/ library is both documentation of the fault classes the
// engine covers (one-way partitions, flapping links, correlated rack
// failures, slow-but-alive nodes, cascading overload - the regimes the
// Impact-FD and large-scale-detection papers in PAPERS.md stress) and the
// regression oracle for every future engine change, via the golden-trace
// conformance suite that pins a fixed-seed trace digest per file.
//
// Grammar (keyword, then key=value pairs in any order):
//
//   name "bad afternoon"            # optional, must precede faults
//   config n=48 max_nodes=52 duration=60000 cluster=8
//   budget max_false_per_node_min=0.5 max_detect_p99=2500
//                                   # optional QoS budget the run must
//                                   # meet (enforced by bench_e11 + CI)
//
//   crash      at=6000 node=17          # node= accepts sets: 1-3,9
//   recover    at=9000 node=17
//   join       at=1000 node=48
//   leave      at=2000 node=3
//   partition  at=8000 groups=0-23|24-47
//   heal       at=12000
//   link_down  at=5000 from=0-7 to=8-15     # one-way (asymmetric) cut
//   link_up    at=9000 from=0-7 to=8-15
//   slow       at=5000 node=3 factor=8      # slow-but-alive
//   slow_end   at=9000 node=3
//   lie        at=5000 node=3 delta=-2      # Byzantine-ish wrong counter:
//   lie_end    at=9000 node=3               # jumps (delta>1) or regresses
//   storm_on   at=5000 extra=800 prob=0.6
//   storm_off  at=9000
//
//   # compound statements (expand to the primitives above)
//   delay_storm from=10000 to=20000 extra=4000 prob=0.7
//   flap        from=10000 to=20000 period=1000 duty=0.5 a=0-7 b=8-15
//   rack        at=15000 group=2 size=8     # correlated rack failure
//   overload    from=10000 to=20000 steps=5 extra=3000 prob=0.8
//   churn       from=10000 to=20000 join=64-67 leave=0-3
//
// Node sets are comma-separated ids and lo-hi ranges (`0-3,7,9`). Times
// are milliseconds. `rack` crashes one group of the two-level topology's
// node blocks (size= overrides the context's cluster size) in a single
// instant - one correlated disruption. Parse errors carry exact
// line/column positions; cross-statement discipline (unmatched link_up,
// storm_off, overlapping partition groups) is attributed to the
// offending statement's line.
//
// Untrusted text cannot make the parser run away. Node ids stay below
// max_nodes (the file's, else the context's, else 2^20), checked at the
// token before a range expands; n, max_nodes and cluster are at most
// 2^20; times and delays at most 1e12 ms. Every statement computes what
// it expands into before emitting it, and a scenario may expand into at
// most 2^20 events plus the node ids their link and partition sets
// carry.
#pragma once

#include <string>
#include <string_view>

#include "cluster/scenario.hpp"

namespace rfd::cluster {

/// Expansion context a scenario file may rely on when it does not carry
/// its own `config` statement: node-id bound checks use `max_nodes`, and
/// `rack` statements without size= use `cluster_size` (0 = derive
/// ceil(sqrt(max_nodes)) like the hierarchical topology does).
struct DslContext {
  int max_nodes = 0;    // 0 = ids checked against the 2^20 ceiling only
  int cluster_size = 0;
};

/// A parsed scenario file: the expanded primitive timeline plus the
/// file's self-description (zero fields mean "caller decides").
struct ScenarioDoc {
  std::string name;
  int n = 0;
  int max_nodes = 0;
  int cluster_size = 0;
  double duration_ms = 0.0;
  /// Highest node id referenced by any statement; lets loaders size the
  /// id space when the file does not set max_nodes.
  NodeId max_node_ref = -1;
  /// Optional QoS budget from a `budget` header (< 0 = no bound): the
  /// run's false-suspicion rate and detection p99 must stay under these
  /// for the scenario to pass its bench/CI gate.
  double budget_max_false_per_node_min = -1.0;
  double budget_max_detect_p99_ms = -1.0;
  bool has_budget() const {
    return budget_max_false_per_node_min >= 0.0 ||
           budget_max_detect_p99_ms >= 0.0;
  }
  Scenario scenario;
};

struct DslError {
  int line = 0;  // 1-based; 0 = no error
  int col = 0;   // 1-based
  std::string message;

  std::string to_string() const;
};

/// Parses scenario DSL text into `out`. On failure returns false and
/// fills `err` with an exact line/column diagnostic; `out` is
/// unspecified. The expanded timeline is guaranteed to pass
/// Scenario::check().
bool parse_scenario(std::string_view text, const DslContext& ctx,
                    ScenarioDoc& out, DslError& err);

/// Reads and parses the scenario file at `path` (err.line = 0 with an
/// explanatory message when the file cannot be read).
bool load_scenario_file(const std::string& path, const DslContext& ctx,
                        ScenarioDoc& out, DslError& err);

/// Serializes a timeline as primitive DSL statements, one event per
/// line in event order; parse_scenario on the result reproduces the
/// event list (round-trip fixed point). `doc` metadata (name/config)
/// is emitted when present.
std::string serialize_scenario(const ScenarioDoc& doc);

}  // namespace rfd::cluster
