#include "runtime/membership.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "runtime/event_queue.hpp"

namespace rfd::rt {
namespace {

struct View {
  std::int64_t id = 0;
  NodeId proposer = -1;
  std::set<NodeId> members;

  /// Adoption order: higher id wins; on ties the smaller proposer wins.
  bool newer_than(const View& other) const {
    if (id != other.id) return id > other.id;
    return proposer < other.proposer;
  }
};

struct Node {
  NodeId id = 0;
  double crash_at = -1.0;  // <= 0: never
  bool halted = false;     // learned of its exclusion and stopped
  View view;
  std::map<NodeId, std::unique_ptr<PeerDetector>> detectors;

  bool os_alive(double now) const {
    return crash_at <= 0.0 || now < crash_at;
  }
  bool active(double now) const { return os_alive(now) && !halted; }
};

std::string render_view(const View& v) {
  std::string out = "v" + std::to_string(v.id) + "{";
  bool first = true;
  for (NodeId m : v.members) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(m);
  }
  return out + "}";
}

}  // namespace

MembershipResult run_membership_experiment(const MembershipConfig& config,
                                           std::uint64_t seed) {
  RFD_REQUIRE(config.n >= 2);
  EventQueue queue;
  Network network(mix_seed(seed, 0x3e3b), config.network);

  std::vector<Node> nodes(static_cast<std::size_t>(config.n));
  std::set<NodeId> everyone;
  for (NodeId i = 0; i < config.n; ++i) everyone.insert(i);
  for (NodeId i = 0; i < config.n; ++i) {
    Node& node = nodes[static_cast<std::size_t>(i)];
    node.id = i;
    node.view.members = everyone;
    if (static_cast<std::size_t>(i) < config.crash_at_ms.size()) {
      node.crash_at = config.crash_at_ms[static_cast<std::size_t>(i)];
    }
  }

  MembershipResult result;
  // Victim -> time of the real crash, for exclusion latency; and the set
  // of exclusions pending accuracy audit.
  std::map<NodeId, double> crash_times;
  for (NodeId i = 0; i < config.n; ++i) {
    const Node& node = nodes[static_cast<std::size_t>(i)];
    if (node.crash_at > 0.0 && node.crash_at < config.duration_ms) {
      crash_times[i] = node.crash_at;
    }
  }
  std::set<NodeId> latency_recorded;
  std::set<NodeId> all_excluded;

  auto detector_for = [&](Node& node, NodeId peer) -> PeerDetector& {
    auto it = node.detectors.find(peer);
    if (it == node.detectors.end()) {
      it = node.detectors.emplace(peer, make_detector(config.detector)).first;
    }
    return *it->second;
  };

  auto install_view = [&](Node& node, const View& v) {
    if (!v.newer_than(node.view)) return;
    node.view = v;
    if (v.members.count(node.id) == 0 && !node.halted) {
      // Process-controlled crash: the exclusion becomes accurate.
      node.halted = true;
      ++result.self_terminations;
    }
  };

  // The self-rescheduling heartbeat pump and check loop of every node. The
  // closures live here, not in the queue: each scheduled event only points
  // back at its loop, so nothing outlives the run.
  std::vector<std::function<void()>> pumps(nodes.size());
  std::vector<std::function<void()>> checks(nodes.size());

  // Heartbeat pumps.
  for (NodeId i = 0; i < config.n; ++i) {
    std::function<void()>* pump = &pumps[static_cast<std::size_t>(i)];
    *pump = [&, i, pump] {
      Node& node = nodes[static_cast<std::size_t>(i)];
      const double now = queue.now();
      if (!node.active(now)) return;
      for (NodeId peer : node.view.members) {
        if (peer == i) continue;
        const std::optional<double> delay = network.route(i, peer, now);
        if (!delay) continue;
        queue.schedule_in(*delay, [&, i, peer] {
          Node& dst = nodes[static_cast<std::size_t>(peer)];
          if (!dst.active(queue.now())) return;
          detector_for(dst, i).on_heartbeat(queue.now());
        });
      }
      queue.schedule_in(config.heartbeat_interval_ms, [pump] { (*pump)(); });
    };
    queue.schedule(0.0, [pump] { (*pump)(); });
  }

  // Coordinator check loops.
  for (NodeId i = 0; i < config.n; ++i) {
    std::function<void()>* check = &checks[static_cast<std::size_t>(i)];
    *check = [&, i, check] {
      Node& node = nodes[static_cast<std::size_t>(i)];
      const double now = queue.now();
      if (!node.active(now)) return;

      std::set<NodeId> suspected;
      for (NodeId peer : node.view.members) {
        if (peer == i) continue;
        if (detector_for(node, peer).suspects(now)) suspected.insert(peer);
      }
      // Acting coordinator: smallest member this node does not suspect
      // must be itself.
      NodeId acting = -1;
      for (NodeId m : node.view.members) {
        if (suspected.count(m) == 0) {
          acting = m;
          break;
        }
      }
      if (acting == i && !suspected.empty()) {
        View next;
        next.id = node.view.id + 1;
        next.proposer = i;
        next.members = node.view.members;
        for (NodeId s : suspected) {
          next.members.erase(s);
          ++result.exclusions;
          all_excluded.insert(s);
          const Node& victim = nodes[static_cast<std::size_t>(s)];
          if (victim.os_alive(now) && !victim.halted) {
            ++result.false_exclusions;
          }
          // Exclusion latency is only meaningful for exclusions that react
          // to the real crash; a victim sacrificed beforehand already
          // counted as a false exclusion above.
          const auto crash_it = crash_times.find(s);
          if (crash_it != crash_times.end() && now >= crash_it->second &&
              latency_recorded.insert(s).second) {
            result.exclusion_latency_ms.add(now - crash_it->second);
          }
        }
        const View installed = next;
        install_view(node, installed);
        for (NodeId peer = 0; peer < config.n; ++peer) {
          if (peer == i) continue;
          const std::optional<double> delay = network.route(i, peer, now);
          if (!delay) continue;
          queue.schedule_in(*delay, [&, peer, installed] {
            Node& dst = nodes[static_cast<std::size_t>(peer)];
            if (!dst.os_alive(queue.now()) || dst.halted) return;
            install_view(dst, installed);
          });
        }
      }
      queue.schedule_in(config.check_interval_ms, [check] { (*check)(); });
    };
    queue.schedule(config.check_interval_ms, [check] { (*check)(); });
  }

  queue.run_until(config.duration_ms);

  // Convergence: all active nodes share one view containing exactly the
  // active nodes.
  const double end = config.duration_ms;
  std::set<NodeId> active;
  for (const Node& node : nodes) {
    if (node.active(end)) active.insert(node.id);
  }
  result.converged = !active.empty();
  const Node* reference = nullptr;
  for (const Node& node : nodes) {
    if (!node.active(end)) continue;
    if (reference == nullptr) {
      reference = &node;
      if (node.view.members != active) result.converged = false;
    } else if (node.view.id != reference->view.id ||
               node.view.members != reference->view.members) {
      result.converged = false;
    }
  }
  if (reference != nullptr) {
    result.final_view = render_view(reference->view);
  }

  // The emulation claim, audited on the *installed* abstraction: at the
  // end of the run, every process an active node's view excludes (its
  // emulated suspect list) is dead - really crashed, or halted after
  // learning of its exclusion. Proposals that lost the view race don't
  // count: they were never part of the abstraction's output.
  result.suspicions_accurate = true;
  for (const Node& node : nodes) {
    if (!node.active(end)) continue;
    for (NodeId s = 0; s < config.n; ++s) {
      if (node.view.members.count(s) > 0) continue;
      const Node& victim = nodes[static_cast<std::size_t>(s)];
      if (victim.os_alive(end) && !victim.halted) {
        result.suspicions_accurate = false;
      }
    }
  }
  return result;
}

}  // namespace rfd::rt
