// Pluggable heartbeat dissemination topologies for the cluster engine.
//
// A topology answers two questions each heartbeat round, per node:
//   1. targets(): which peers receive a message from this node at the
//      caller's `now` (topologies keep no clock of their own);
//   2. digest(): which peers' counters get piggybacked on that message
//      (bounded by digest_size - piggyback bandwidth is the budget the
//      architectures below spend differently).
//
// The four architectures span the message-complexity spectrum the bench
// (E11) measures:
//
//   AllToAll      - every node heartbeats every known peer directly.
//                   O(n^2) messages per round, no piggybacking needed,
//                   fastest detection; the naive baseline.
//   Ring(k)       - each node heartbeats its k ring successors and relies
//                   on digest rotation to circulate far counters. O(n*k)
//                   messages; detection latency grows with n/k (the
//                   pipeline of forwarded counters drains slowly), which
//                   the bench makes visible.
//   Gossip(f)     - each node picks f random live-believed peers per
//                   round (SWIM/van-Renesse style). O(n*f) messages with
//                   O(log n) dissemination rounds; per-node load is flat
//                   in n - the sublinear architecture.
//   Hierarchical  - nodes grouped into clusters of ~sqrt(n) (VCube-ish
//                   clusters of clusters, flattened to two levels):
//                   all-to-all inside a cluster, and the acting cluster
//                   leader (lowest member it believes alive) exchanges
//                   cluster summaries with the other leaders. Members
//                   piggyback foreign counters to each other, so every
//                   node still converges on the full crashed set.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace rfd::cluster {

enum class TopologyKind { kAllToAll, kRing, kGossip, kHierarchical };

struct TopologyParams {
  TopologyKind kind = TopologyKind::kGossip;
  int ring_successors = 3;  // Ring(k)
  int gossip_fanout = 3;    // Gossip(f)
  /// Per-round probability that a gossiping node additionally contacts
  /// one peer it believes dead. Real gossip fabrics do this so healed
  /// partitions re-merge (a suspected-but-alive peer can only be
  /// rediscovered by talking to it); the cost is a trickle of messages
  /// to genuinely dead nodes.
  double gossip_resurrect_prob = 0.25;
  /// Max piggybacked (id, counter) entries per message, beyond the
  /// sender's own entry.
  int digest_size = 32;
  /// Hierarchical cluster size; 0 = ceil(sqrt(max_nodes)).
  int cluster_size = 0;
};

class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string name() const = 0;

  /// Fills `out` with the peers `node` heartbeats in its round at
  /// simulated time `now`.
  virtual void targets(ClusterNode& node, Rng& rng, double now,
                       std::vector<NodeId>& out) = 0;

  /// Fills `out` with peer ids whose counters ride along on the message
  /// from `node` to `target` (the sender's own entry is implicit).
  virtual void digest(ClusterNode& node, NodeId target,
                      std::vector<NodeId>& out) = 0;

  /// Attaches the trace sink. Topologies with internal role state - the
  /// hierarchical fabric's acting leaders - emit "leader" records on
  /// role flips, stamped with the `now` of the targets() call that saw
  /// the flip; stateless topologies ignore it.
  void set_trace(obs::RecordSink* trace) { trace_ = trace; }

  /// Checkpoint hooks for that role state; stateless topologies save
  /// nothing. restore_state() refuses state it could not have written.
  virtual void save_state(ByteWriter& /*w*/) const {}
  virtual bool restore_state(ByteReader& /*r*/) { return true; }

 protected:
  obs::RecordSink* trace_ = nullptr;
};

std::unique_ptr<Topology> make_topology(const TopologyParams& params,
                                        int max_nodes);
std::string topology_kind_name(TopologyKind kind);

}  // namespace rfd::cluster
