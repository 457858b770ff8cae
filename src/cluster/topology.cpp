#include "cluster/topology.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace rfd::cluster {
namespace {

/// Counters worth forwarding: a zero counter carries no liveness evidence.
/// Reads the node's dense flags byte - this filter runs once per digest
/// slot scanned, the hottest loop in the topology layer.
bool has_freshness(const ClusterNode& node, NodeId peer) {
  return node.has_freshness(peer);
}

class AllToAllTopology final : public Topology {
 public:
  std::string name() const override { return "all-to-all"; }

  void targets(ClusterNode& node, Rng& /*rng*/, double /*now*/,
               std::vector<NodeId>& out) override {
    for (NodeId j = 0; j < node.max_nodes(); ++j) {
      if (j != node.id() && node.knows(j)) out.push_back(j);
    }
  }

  void digest(ClusterNode& /*node*/, NodeId /*target*/,
              std::vector<NodeId>& /*out*/) override {
    // Every peer is monitored directly; piggybacking adds nothing.
  }
};

class RingTopology final : public Topology {
 public:
  explicit RingTopology(const TopologyParams& params) : params_(params) {}

  std::string name() const override {
    return "ring(k=" + std::to_string(params_.ring_successors) + ")";
  }

  void targets(ClusterNode& node, Rng& /*rng*/, double /*now*/,
               std::vector<NodeId>& out) override {
    // The k nearest live-believed successors in cyclic id order, so the
    // ring routes around members it considers dead. Falls back to known
    // successors when everyone looks dead (e.g. right after a restart).
    pick_successors(node, out, /*require_alive=*/true);
    if (out.empty()) pick_successors(node, out, /*require_alive=*/false);
    // Always heartbeat the immediate known successor too, suspected or
    // not: a healed partition can only re-merge through a node willing to
    // talk across the old cut.
    const int n = node.max_nodes();
    for (int step = 1; step < n; ++step) {
      const NodeId j = static_cast<NodeId>(
          (static_cast<int>(node.id()) + step) % n);
      if (!node.knows(j)) continue;
      if (std::find(out.begin(), out.end(), j) == out.end()) {
        out.push_back(j);
      }
      break;
    }
  }

  void digest(ClusterNode& node, NodeId /*target*/,
              std::vector<NodeId>& out) override {
    node.select_digest(
        params_.digest_size,
        [&](NodeId j) { return has_freshness(node, j); }, out);
  }

 private:
  void pick_successors(ClusterNode& node, std::vector<NodeId>& out,
                       bool require_alive) const {
    const int n = node.max_nodes();
    for (int step = 1;
         step < n && static_cast<int>(out.size()) < params_.ring_successors;
         ++step) {
      const NodeId j = static_cast<NodeId>(
          (static_cast<int>(node.id()) + step) % n);
      if (!node.knows(j)) continue;
      if (require_alive && !node.believes_alive(j)) continue;
      out.push_back(j);
    }
  }

  TopologyParams params_;
};

class GossipTopology final : public Topology {
 public:
  GossipTopology(const TopologyParams& params, int max_nodes)
      : params_(params), cache_(static_cast<std::size_t>(max_nodes)) {}

  std::string name() const override {
    return "gossip(f=" + std::to_string(params_.gossip_fanout) + ")";
  }

  void targets(ClusterNode& node, Rng& rng, double /*now*/,
               std::vector<NodeId>& out) override {
    // The alive/doubtful candidate lists only change when the node's
    // membership view does (a learn, a suspicion flip, a reset), which is
    // rare next to the per-round pump; cache them keyed on the node's
    // membership version instead of rescanning all peers every call.
    const TargetCache& cache = refreshed(node);
    const std::vector<std::uint16_t>* candidates = &cache.alive;
    // When everyone looks dead, sample from the doubtful instead - and
    // the resurrect extra below then has nothing left to draw from
    // (mirrors the pre-cache list swap, RNG draw for RNG draw).
    const bool doubt_available =
        !candidates->empty() && !cache.doubtful.empty();
    if (candidates->empty()) candidates = &cache.doubtful;
    const int fanout = params_.gossip_fanout;
    const std::int64_t count =
        static_cast<std::int64_t>(candidates->size());
    if (count <= fanout) {
      out.insert(out.end(), candidates->begin(), candidates->end());
    } else {
      sample_without_replacement(*candidates, fanout, rng, out);
    }
    // Occasionally poke a peer believed dead: the only way a false
    // suspicion (e.g. the far side of a healed partition) can ever be
    // refuted is by re-establishing contact.
    if (doubt_available && rng.chance(params_.gossip_resurrect_prob)) {
      out.push_back(cache.doubtful[static_cast<std::size_t>(rng.below(
          static_cast<std::int64_t>(cache.doubtful.size())))]);
    }
  }

  void digest(ClusterNode& node, NodeId /*target*/,
              std::vector<NodeId>& out) override {
    node.select_digest(
        params_.digest_size,
        [&](NodeId j) { return has_freshness(node, j); }, out);
  }

 private:
  /// Ids fit 16 bits (kMaxNodes), which halves the lists: together
  /// they hold every peer the node knows, so n^2 ids per fabric.
  struct TargetCache {
    std::int64_t version = -1;
    std::vector<std::uint16_t> alive;
    std::vector<std::uint16_t> doubtful;
  };

  const TargetCache& refreshed(const ClusterNode& node) {
    TargetCache& cache = cache_[static_cast<std::size_t>(node.id())];
    if (cache.version != node.membership_version()) {
      cache.alive.clear();
      cache.doubtful.clear();
      for (NodeId j = 0; j < node.max_nodes(); ++j) {
        if (j == node.id() || !node.knows(j)) continue;
        (node.believes_alive(j) ? cache.alive : cache.doubtful)
            .push_back(static_cast<std::uint16_t>(j));
      }
      cache.version = node.membership_version();
    }
    return cache;
  }

  /// Partial Fisher-Yates over `pool` without mutating it: draws the
  /// same rng.below sequence and emits the same ids as shuffling the
  /// first `fanout` slots of a scratch copy, but tracks the (at most
  /// `fanout`) displaced values in a small overlay instead of copying
  /// the whole pool per call. Slot i is never read again once emitted
  /// (later draws index >= i+1), so only the j-side displacement is
  /// recorded.
  void sample_without_replacement(const std::vector<std::uint16_t>& pool,
                                  int fanout, Rng& rng,
                                  std::vector<NodeId>& out) {
    overlay_.clear();
    const std::int64_t count = static_cast<std::int64_t>(pool.size());
    auto value_at = [&](std::int64_t idx) {
      for (const Displaced& d : overlay_) {
        if (d.idx == idx) return d.val;
      }
      return static_cast<NodeId>(pool[static_cast<std::size_t>(idx)]);
    };
    auto displace = [&](std::int64_t idx, NodeId val) {
      for (Displaced& d : overlay_) {
        if (d.idx == idx) {
          d.val = val;
          return;
        }
      }
      overlay_.push_back({idx, val});
    };
    for (int i = 0; i < fanout; ++i) {
      const std::int64_t j = i + rng.below(count - i);
      const NodeId taken = value_at(j);
      displace(j, value_at(i));
      out.push_back(taken);
    }
  }

  struct Displaced {
    std::int64_t idx;
    NodeId val;
  };

  TopologyParams params_;
  std::vector<TargetCache> cache_;
  std::vector<Displaced> overlay_;
};

class HierarchicalTopology final : public Topology {
 public:
  HierarchicalTopology(const TopologyParams& params, int max_nodes)
      : params_(params), max_nodes_(max_nodes),
        acting_(static_cast<std::size_t>(max_nodes), -1) {
    cluster_size_ = params.cluster_size > 0
                        ? params.cluster_size
                        : static_cast<int>(std::ceil(std::sqrt(
                              static_cast<double>(max_nodes))));
    cluster_size_ = std::max(cluster_size_, 2);
  }

  std::string name() const override {
    return "hierarchical(c=" + std::to_string(cluster_size_) + ")";
  }

  void targets(ClusterNode& node, Rng& /*rng*/, double now,
               std::vector<NodeId>& out) override {
    const int own = cluster_of(node.id());
    // Intra-cluster: all-to-all with known cluster-mates.
    for (NodeId j = cluster_lo(own); j < cluster_hi(own); ++j) {
      if (j != node.id() && node.knows(j)) out.push_back(j);
    }
    // Inter-cluster: the two lowest own-cluster members this node
    // believes alive act as leaders (a primary alone would leave every
    // foreign observer blind to this cluster for a full takeover window
    // whenever the primary crashes), each contacting its best guess of
    // every other cluster's two leaders.
    const bool leads = acts_as_leader(node, own);
    note_leader(node.id(), own, leads, now);
    if (!leads) return;
    const int clusters = (max_nodes_ + cluster_size_ - 1) / cluster_size_;
    for (int g = 0; g < clusters; ++g) {
      if (g == own) continue;
      append_presumed_leaders(node, g, out);
    }
  }

  void digest(ClusterNode& node, NodeId target,
              std::vector<NodeId>& out) override {
    const int own = cluster_of(node.id());
    if (cluster_of(target) == own) {
      // Inside the cluster everyone is monitored directly; the payload
      // budget goes to foreign counters so members converge on crashes
      // in other clusters without ever talking to them.
      node.select_digest(
          params_.digest_size,
          [&](NodeId j) {
            return cluster_of(j) != own && has_freshness(node, j);
          },
          out);
    } else {
      // Leader-to-leader: summarize the sender's own cluster.
      node.select_digest(
          params_.digest_size,
          [&](NodeId j) {
            return cluster_of(j) == own && has_freshness(node, j);
          },
          out);
    }
  }

  /// The acting-leader statuses, one byte each.
  void save_state(ByteWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(acting_.size()));
    w.bytes(acting_.data(), acting_.size());
  }

  bool restore_state(ByteReader& r) override {
    std::vector<std::int8_t> acting(acting_.size());
    if (r.u32() != acting.size() ||
        !r.bytes(acting.data(), acting.size()) ||
        !std::all_of(acting.begin(), acting.end(),
                     [](std::int8_t s) { return s >= -1 && s <= 1; })) {
      return false;
    }
    acting_ = std::move(acting);
    return true;
  }

 private:
  int cluster_of(NodeId j) const { return static_cast<int>(j) / cluster_size_; }
  NodeId cluster_lo(int g) const {
    return static_cast<NodeId>(g * cluster_size_);
  }
  NodeId cluster_hi(int g) const {
    return static_cast<NodeId>(
        std::min((g + 1) * cluster_size_, max_nodes_));
  }

  static constexpr int kLeadersPerCluster = 2;

  /// Tracks a node's acting-leader status and emits a "leader" trace
  /// record when it flips (leader changes are exactly the events a
  /// two-level fabric's operator wants on a timeline). The initial "not
  /// a leader" state is not newsworthy. The status is tracked with no
  /// trace too, so a checkpoint carries it either way.
  void note_leader(NodeId id, int cluster, bool acting, double now) {
    std::int8_t& prev = acting_[static_cast<std::size_t>(id)];
    const std::int8_t current = acting ? 1 : 0;
    if (prev == current) return;
    const bool newsworthy = acting || prev == 1;
    prev = current;
    if (!newsworthy || trace_ == nullptr) return;
    obs::Record r;
    r.type = obs::RecordType::kLeader;
    r.t = now;
    r.a = id;
    r.b = cluster;
    r.c = current;
    trace_->emit(r);
  }

  bool acts_as_leader(const ClusterNode& node, int g) const {
    int rank = 0;
    for (NodeId j = cluster_lo(g); j < cluster_hi(g); ++j) {
      if (j == node.id()) return true;
      if (node.believes_alive(j) && ++rank >= kLeadersPerCluster) {
        return false;
      }
    }
    return false;
  }

  void append_presumed_leaders(const ClusterNode& node, int g,
                               std::vector<NodeId>& out) const {
    int found = 0;
    for (NodeId j = cluster_lo(g); j < cluster_hi(g); ++j) {
      if (node.knows(j) && node.believes_alive(j)) {
        out.push_back(j);
        if (++found >= kLeadersPerCluster) return;
      }
    }
    if (found > 0) return;
    // Everyone there looks dead; poke the lowest known member anyway so
    // a healed partition can re-establish contact.
    for (NodeId j = cluster_lo(g); j < cluster_hi(g); ++j) {
      if (node.knows(j)) {
        out.push_back(j);
        return;
      }
    }
  }

  TopologyParams params_;
  int max_nodes_;
  int cluster_size_;
  /// Last traced acting-leader status per node (-1 = never evaluated).
  std::vector<std::int8_t> acting_;
};

}  // namespace

std::unique_ptr<Topology> make_topology(const TopologyParams& params,
                                        int max_nodes) {
  RFD_REQUIRE(max_nodes >= 2 && max_nodes <= kMaxNodes);
  switch (params.kind) {
    case TopologyKind::kAllToAll:
      return std::make_unique<AllToAllTopology>();
    case TopologyKind::kRing:
      RFD_REQUIRE(params.ring_successors >= 1);
      return std::make_unique<RingTopology>(params);
    case TopologyKind::kGossip:
      RFD_REQUIRE(params.gossip_fanout >= 1);
      return std::make_unique<GossipTopology>(params, max_nodes);
    case TopologyKind::kHierarchical:
      return std::make_unique<HierarchicalTopology>(params, max_nodes);
  }
  RFD_UNREACHABLE("unknown topology kind");
}

std::string topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kAllToAll:
      return "all-to-all";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kGossip:
      return "gossip";
    case TopologyKind::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

}  // namespace rfd::cluster
