// One node of the cluster monitoring engine.
//
// The cluster layer disseminates *freshness*, not raw heartbeats: every
// node keeps a monotonically increasing heartbeat counter, bumps it once
// per heartbeat interval, and ships (id, counter) entries to peers chosen
// by the dissemination topology. A receiver treats any counter advance for
// peer j - whether it arrived directly from j or piggybacked through
// intermediaries - as a heartbeat for its per-peer detector (van Renesse's
// gossip-style failure detection, composed with the FixedTimeout /
// ChenAdaptive / PhiAccrual detectors of src/runtime).
//
// This unifies all four topologies behind one mechanism:
//   - direct heartbeats (all-to-all) advance only the sender's entry;
//   - ring / gossip / hierarchical messages piggyback bounded digests of
//     other counters, so liveness information spreads transitively;
//   - false suspicions self-heal: a fresh counter is its own refutation,
//     so no SWIM-style incarnation machinery is needed - exactly what
//     makes partition/heal scenarios converge.
//
// Layout is dictated by the two hot loops - the engine's receive loop
// (tens of millions of digest entries per run at n=1024) and the
// topologies' per-round scans (target selection, digest rotation) -
// and by the n^2 (observer, peer) pairs a full cluster
// holds: 16.7M at n=4096, where each byte per peer costs 16 MB. Per-peer
// state is struct-of-arrays, one dense array per reader, 28 bytes per
// peer in all on a kFixed node and 36 on an adaptive one:
//   - counters_ (4 bytes/peer): the freshest heartbeat counter. A seen
//     counter > 0 implies the peer is known, so a stale entry - about
//     half of all entries - is decided by this one load and touches
//     nothing else. may_change() is that test, branch-free: the engine
//     runs it over a whole digest and observes only what it keeps;
//   - hot_ (one 2-byte PeerHot per peer): the known / suspected / fresh /
//     armed / heard flag bits and the remaining piggyback budget.
//     select_digest's hot and rotation passes, the topologies' target
//     refresh and the engine's skip tests read nothing else, so what
//     they scan is 4 KB per node at n=2048;
//   - stamp_ (8 bytes/peer): one time per peer. On a kFixed node it is
//     the grace origin (when the peer became known) until the peer's
//     first counter advance sets the heard bit, and the last heartbeat
//     from then on: that slot and the bit are the inlined fixed-timeout
//     detector's entire state, so the cluster default needs no heap
//     object and no virtual dispatch. An adaptive node sets no heard
//     bit and keeps the grace origin there;
//   - eval_tick_ (4 bytes/peer): the check tick at which the engine's
//     suspicion wheel next evaluates the pair, read when the wheel arms
//     or drains it;
//   - suspect_since_ (8 bytes/peer, cold): when the current suspicion
//     started - touched on suspicion transitions, not per entry;
//   - hot_ring_ (2 bytes/peer): the FIFO of peers with undrained
//     piggyback budget. An id is queued at most once and never for the
//     node itself, so a ring of exactly max_nodes slots, allocated with
//     the node, always holds it; ids fit 16 bits (kMaxNodes).
// An adaptive node adds detectors_ (8 bytes/peer): the kChen/kPhi
// instance per peer, created on the first evidence-bearing advance. The
// vector exists only when the node's detector is adaptive, so kFixed
// nodes pay nothing for it.
// The hot-path queries and observe() are defined inline here so the
// receive loop and the topology scans compile into flat array walks.
// Detector state is created lazily on the first counter advance (a node
// that has never been heard from is covered by the bootstrap grace
// window instead).
//
// Heartbeat counters are stored as 32 bits (advance_own_counter guards
// the bound): one counter per heartbeat interval means 2^31 intervals
// outlast any simulation by orders of magnitude, and the narrower word
// halves the hot array and the digest payload traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "runtime/detectors.hpp"
#include "runtime/network.hpp"

namespace rfd::cluster {

using rt::NodeId;

/// Largest id space a node holds: its ids fit the hot ring's 16 bits, and
/// the engine's (observer, peer) wheel keys fit 32. Its n^2 per-pair
/// state alone would be about 120 GB.
inline constexpr int kMaxNodes = 65536;

/// Dense per-peer flag slot; see the file header.
struct PeerHot {
  std::uint8_t flags = 0;  // kKnown / kSuspected / kFresh / kArmed / kHeard
  std::int8_t hot_remaining = 0;  // piggyback budget (> 0 <=> queued)
};
static_assert(sizeof(PeerHot) == 2, "PeerHot must stay one 2-byte slot");

/// What one digest entry did to the receiver's state; lets the engine do
/// its wheel bookkeeping without re-querying the record.
struct ObserveResult {
  bool advanced = false;         // counter advanced: heartbeat evidence
  bool newly_known = false;      // first mention of this peer
  bool started_detector = false; // this advance began heartbeat tracking
};

struct NodeParams {
  rt::DetectorParams detector;
  /// Silence tolerated for a peer that is known (from the membership seed
  /// list or a digest mention) but has never produced a counter advance.
  double bootstrap_grace_ms = 1500.0;
  /// How many times a counter advance is piggybacked before the id falls
  /// out of the hot queue (SWIM's bounded rumor retransmission).
  int hot_transmissions = 4;
};

class ClusterNode {
 public:
  ClusterNode(NodeId id, int max_nodes, NodeParams params);

  NodeId id() const { return id_; }
  int max_nodes() const { return max_nodes_; }

  bool active() const { return active_; }
  void set_active(bool active) { active_ = active; }

  std::int64_t own_counter() const { return own_counter_; }
  void advance_own_counter() {
    // Counters are stored and shipped as 32 bits (see file header).
    RFD_REQUIRE_MSG(own_counter_ < std::numeric_limits<std::int32_t>::max(),
                    "heartbeat counter exceeds 32-bit digest range");
    ++own_counter_;
  }

  /// Marks `peer` as a known member; returns true if it was new
  /// (no-op and false for self / out-of-range / already known).
  bool learn_peer(NodeId peer, double now) {
    if (peer == id_ || peer < 0 || peer >= max_nodes_) return false;
    const std::size_t p = static_cast<std::size_t>(peer);
    if ((hot_[p].flags & kKnownFlag) != 0) return false;
    hot_[p].flags |= kKnownFlag;
    stamp_[p] = now;  // the grace origin
    ++known_count_;
    ++membership_version_;
    return true;
  }

  /// Whether observe(peer, counter, now) can change this node's state.
  /// False exactly where observe() returns untouched before it looks at
  /// anything but counters_: for self, an id off [0, max_nodes), and a
  /// counter no newer than a positive one on file. A zero on file passes,
  /// since a first mention learns the peer. Branch-free, so the engine
  /// filters a decoded digest with it before it observes any entry:
  /// counters only grow while a digest applies, so an entry this drops
  /// stays a no-op wherever it sits in the digest.
  bool may_change(NodeId peer, std::int32_t counter) const {
    const bool in_range = static_cast<std::uint32_t>(peer) <
                          static_cast<std::uint32_t>(max_nodes_);
    // An id off the id space reads the own slot; the result ignores it.
    const std::int32_t seen =
        counters_[static_cast<std::size_t>(in_range ? peer : id_)];
    return in_range & (peer != id_) & ((seen <= 0) | (counter > seen));
  }

  /// Prefetches the slots observe() writes when `peer`'s counter
  /// advances. `peer` must lie in [0, max_nodes), as it does for every
  /// entry may_change() keeps.
  void prefetch(NodeId peer) const {
    const std::size_t p = static_cast<std::size_t>(peer);
    __builtin_prefetch(&hot_[p], 1);
    if (fixed_timeout_ms_ > 0.0) {
      __builtin_prefetch(&stamp_[p], 1);
    } else {
      __builtin_prefetch(&detectors_[p]);
    }
  }

  /// Processes one digest entry (peer, counter) received at `now`; feeds
  /// the peer's detector if the counter advanced.
  ObserveResult observe(NodeId peer, std::int64_t counter, double now) {
    ObserveResult result;
    if (peer == id_ || peer < 0 || peer >= max_nodes_) return result;
    const std::size_t p = static_cast<std::size_t>(peer);
    const std::int32_t seen = counters_[p];
    if (seen > 0) {
      // A seen counter implies the peer is already known, so a stale
      // entry is decided right here by the one counters_ load, as
      // may_change() decides it. (A zero or stale counter carries no
      // liveness evidence; see below for zero's membership role.)
      if (counter <= seen) return result;
      counters_[p] = static_cast<std::int32_t>(counter);
      PeerHot& h = hot_[p];
      h.flags |= kFreshFlag;
      if (fixed_timeout_ms_ > 0.0) {
        // The stamp turns from the grace origin into the last heartbeat.
        result.started_detector = (h.flags & kHeardFlag) == 0;
        h.flags |= kHeardFlag;
        stamp_[p] = now;
      } else {
        std::unique_ptr<rt::PeerDetector>& detector = detectors_[p];
        if (detector == nullptr) {
          detector = rt::make_detector(params_.detector, phi_z_threshold_);
          result.started_detector = true;
        }
        detector->on_heartbeat(now);
      }
      enqueue_hot(h, p);
      result.advanced = true;
      return result;
    }
    // Cold branch: no counter on file yet. A zero counter carries
    // membership information (handled by learn_peer) but no liveness
    // evidence.
    result.newly_known = learn_peer(peer, now);
    if (counter <= 0) return result;
    // First-ever counter for this peer: it proves membership, not
    // liveness - a gossiped value can be arbitrarily stale (e.g. the
    // final counter of a long-dead node still circulating in digests,
    // arriving at a freshly reset or joined observer). Record it as the
    // high-water mark and keep forwarding it (dissemination is how the
    // cluster bootstraps), but do not feed the detector: only an
    // advance beyond this mark is heartbeat evidence. A live peer
    // advances within one interval, so trust costs one round of
    // warm-up; a dead one never advances and falls to the bootstrap
    // grace window.
    counters_[p] = static_cast<std::int32_t>(counter);
    PeerHot& h = hot_[p];
    h.flags |= kFreshFlag;
    enqueue_hot(h, p);
    return result;
  }

  /// Current suspicion verdict for `peer` (self is never suspected,
  /// unknown peers are never suspected).
  bool suspects(NodeId peer, double now) const {
    if (peer == id_ || peer < 0 || peer >= max_nodes_) return false;
    const std::size_t p = static_cast<std::size_t>(peer);
    const std::uint8_t flags = hot_[p].flags;
    if ((flags & kKnownFlag) == 0) return false;
    if (fixed_timeout_ms_ > 0.0) return now - stamp_[p] > silence_limit(flags);
    const rt::PeerDetector* detector = detectors_[p].get();
    if (detector == nullptr) {
      return now - stamp_[p] > params_.bootstrap_grace_ms;
    }
    return detector->suspects(now);
  }

  /// Expiry deadline for `peer`: absent further counter advances,
  /// suspects(peer, t) holds exactly for t > deadline. +infinity for
  /// self/unknown peers (never suspected). Grace-covered peers expire at
  /// known_since + bootstrap_grace; heard peers defer to their detector
  /// (a kFixed one: last heartbeat + timeout).
  double suspect_deadline(NodeId peer) const {
    if (peer == id_ || peer < 0 || peer >= max_nodes_) {
      return std::numeric_limits<double>::infinity();
    }
    const std::size_t p = static_cast<std::size_t>(peer);
    const std::uint8_t flags = hot_[p].flags;
    if ((flags & kKnownFlag) == 0) {
      return std::numeric_limits<double>::infinity();
    }
    if (fixed_timeout_ms_ > 0.0) return stamp_[p] + silence_limit(flags);
    const rt::PeerDetector* detector = detectors_[p].get();
    if (detector == nullptr) return stamp_[p] + params_.bootstrap_grace_ms;
    return detector->suspect_deadline();
  }

  /// Whether the detector's expiry deadline can only move forward on a
  /// heartbeat. True for the inlined fixed-timeout detector; adaptive
  /// windows (kChen / kPhi) can tighten, so theirs can move backward.
  /// The engine uses this to skip re-arming already-armed pairs.
  bool deadline_monotone() const { return fixed_timeout_ms_ > 0.0; }

  /// Updates the cached suspicion verdict (engine wheel only).
  void set_suspected(NodeId peer, bool suspected, double since) {
    const std::size_t p = static_cast<std::size_t>(peer);
    suspect_since_[p] = since;
    const std::uint8_t before = hot_[p].flags;
    if (suspected) {
      hot_[p].flags = before | kSuspectedFlag;
    } else {
      hot_[p].flags = before & static_cast<std::uint8_t>(~kSuspectedFlag);
    }
    if (hot_[p].flags != before) ++membership_version_;
  }

  /// Check-tick index at which the engine's suspicion wheel will next
  /// evaluate this pair (-1 = unarmed). Owned by the engine; lives in the
  /// node's eval_tick_ array (with the >= 0 state mirrored as the armed
  /// flag bit) so the wheel needs no side table of its own and the
  /// receive loop's skip test stays on the flag slot it already holds.
  /// 32 bits suffice: the engine refuses runs whose tick count does not
  /// fit. See engine.cpp.
  std::int32_t eval_tick(NodeId peer) const {
    return eval_tick_[static_cast<std::size_t>(peer)];
  }
  void set_eval_tick(NodeId peer, std::int32_t tick) {
    const std::size_t p = static_cast<std::size_t>(peer);
    eval_tick_[p] = tick;
    PeerHot& h = hot_[p];
    if (tick >= 0) {
      h.flags |= kArmedFlag;
    } else {
      h.flags &= static_cast<std::uint8_t>(~kArmedFlag);
    }
  }

  bool knows(NodeId peer) const {
    if (peer < 0 || peer >= max_nodes_) return false;
    if (peer == id_) return true;
    return (hot_[static_cast<std::size_t>(peer)].flags & kKnownFlag) != 0;
  }

  /// Cached verdict from the engine's last evaluation of this pair.
  bool is_suspected(NodeId peer) const {
    return (hot_[static_cast<std::size_t>(peer)].flags & kSuspectedFlag) !=
           0;
  }

  bool armed(NodeId peer) const {
    return (hot_[static_cast<std::size_t>(peer)].flags & kArmedFlag) != 0;
  }

  /// known && !suspected-by-cached-state; self counts as alive. Used by
  /// topologies for target selection (don't waste fanout on the dead).
  bool believes_alive(NodeId peer) const {
    if (peer == id_) return true;
    if (peer < 0 || peer >= max_nodes_) return false;
    return (hot_[static_cast<std::size_t>(peer)].flags &
            (kKnownFlag | kSuspectedFlag)) == kKnownFlag;
  }

  /// Whether a non-zero counter has been seen for `peer` (worth
  /// forwarding in digests; zero counters carry no liveness evidence).
  bool has_freshness(NodeId peer) const {
    if (peer < 0 || peer >= max_nodes_) return false;
    return (hot_[static_cast<std::size_t>(peer)].flags & kFreshFlag) != 0;
  }

  /// Freshest heartbeat counter seen for `peer`.
  std::int32_t counter(NodeId peer) const {
    return counters_[static_cast<std::size_t>(peer)];
  }

  /// Bumped whenever the (known, suspected) membership view changes;
  /// topologies key their per-node target caches on it.
  std::int64_t membership_version() const { return membership_version_; }

  /// Appends up to `budget` known peer ids (never self) to `out`.
  /// Recently advanced peers go first - forwarding fresh counters is what
  /// makes dissemination epidemic (SWIM piggybacks rumors the same way);
  /// each advance rides along at most `hot_transmissions` times. Leftover
  /// budget is filled from a rotating cursor over the whole membership,
  /// which keeps even quiet or stale entries circulating. `keep` filters
  /// candidates; filtered-out hot entries stay queued undecremented.
  template <typename Filter>
  void select_digest(int budget, Filter&& keep, std::vector<NodeId>& out) {
    if (budget <= 0 || known_count_ == 0) return;
    int appended = 0;
    // Hot pass: drain queued advances front-to-back. Entries that must
    // stay queued (kept with leftover budget, or filtered out by `keep`)
    // are written back, in order, just below the scan point, which
    // becomes the new queue head - the scanned prefix is compacted in
    // place without ever moving the untouched tail, so a send costs
    // O(entries scanned), not O(queue length).
    const std::size_t slots = hot_ring_.size();
    std::size_t read = hot_head_;
    std::size_t visited = 0;
    for (; visited < hot_count_ && appended < budget; ++visited) {
      const NodeId candidate = hot_ring_[read];
      if (++read == slots) read = 0;
      PeerHot& h = hot_[static_cast<std::size_t>(candidate)];
      if (h.hot_remaining <= 0) continue;  // expired while queued
      if (keep(candidate)) {
        out.push_back(candidate);
        ++appended;
        --h.hot_remaining;  // drained at 0: dropped from the queue below
      }
    }
    // Survivors are exactly the scanned ids with budget left (an id is
    // queued at most once), so a backward pass moves them up against
    // the unscanned tail without scratch space.
    std::size_t from = read;
    std::size_t to = read;
    for (std::size_t i = 0; i < visited; ++i) {
      from = (from == 0 ? slots : from) - 1;
      const std::uint16_t candidate = hot_ring_[from];
      if (hot_[static_cast<std::size_t>(candidate)].hot_remaining <= 0) {
        --hot_count_;
        continue;
      }
      to = (to == 0 ? slots : to) - 1;
      hot_ring_[to] = candidate;
    }
    hot_head_ = to;
    // Rotation pass over the dense flags array (an id just taken from
    // the hot queue may repeat; the receiver treats the duplicate as a
    // no-op).
    for (int scanned = 0; scanned < max_nodes_ && appended < budget;
         ++scanned) {
      if (++digest_cursor_ >= max_nodes_) digest_cursor_ = 0;
      const NodeId candidate = static_cast<NodeId>(digest_cursor_);
      if (candidate == id_) continue;
      if ((hot_[static_cast<std::size_t>(candidate)].flags & kKnownFlag) ==
          0) {
        continue;
      }
      if (!keep(candidate)) continue;
      out.push_back(candidate);
      ++appended;
    }
  }

  /// Forgets all peer state (process restart loses its memory); re-seeds
  /// membership from `contacts`. The own counter survives because it is
  /// engine-side simulation state standing in for a persisted epoch.
  void reset_peers(double now, const std::vector<NodeId>& contacts);

  /// Checkpoint hooks: append this node's complete mutable state (own
  /// counter, per-peer counters/flags/timestamps, detector instances,
  /// hot-queue content) to `out` / restore it from a byte span. restore
  /// assumes a freshly constructed node with the same (id, max_nodes,
  /// params) - the checkpoint wrapper pins that with a config
  /// fingerprint - and returns false on a truncated or inconsistent
  /// payload, leaving the node unfit for use. A restored node continues
  /// exactly where the saved one stopped: same digests, same suspicion
  /// verdicts, same detector windows.
  void save_state(std::vector<std::uint8_t>& out) const;
  bool restore_state(const std::uint8_t* data, std::size_t size,
                     std::size_t& consumed);

  /// When the current suspicion of `peer` started (engine bookkeeping;
  /// -1 = not suspected). Written through set_suspected.
  double suspect_since(NodeId peer) const {
    return suspect_since_[static_cast<std::size_t>(peer)];
  }
  /// Current hot-queue occupancy (ids with undrained piggyback budget);
  /// snapshotted by the observability layer as a dissemination-backlog
  /// gauge.
  std::size_t hot_queue_depth() const { return hot_count_; }

 private:
  static constexpr std::uint8_t kKnownFlag = 1;
  static constexpr std::uint8_t kSuspectedFlag = 2;
  static constexpr std::uint8_t kFreshFlag = 4;
  static constexpr std::uint8_t kArmedFlag = 8;
  /// A kFixed node's stamp_ holds the last heartbeat, not the grace
  /// origin. Set only with kKnownFlag; checkpoints leave it out and
  /// derive it from the heartbeat time they carry.
  static constexpr std::uint8_t kHeardFlag = 16;

  /// The silence a kFixed node tolerates past a known peer's stamp: the
  /// timeout after its last heartbeat once heard, else the bootstrap
  /// grace window from when this node learned the peer exists.
  double silence_limit(std::uint8_t flags) const {
    return (flags & kHeardFlag) != 0 ? fixed_timeout_ms_
                                     : params_.bootstrap_grace_ms;
  }
  void enqueue_hot(PeerHot& h, std::size_t p) {
    if (h.hot_remaining <= 0) {
      // Holds while "queued <=> budget > 0" does (restore_state checks).
      RFD_REQUIRE(hot_count_ < hot_ring_.size());
      std::size_t tail = hot_head_ + hot_count_;
      if (tail >= hot_ring_.size()) tail -= hot_ring_.size();
      hot_ring_[tail] = static_cast<std::uint16_t>(p);
      ++hot_count_;
    }
    h.hot_remaining = static_cast<std::int8_t>(params_.hot_transmissions);
  }

  NodeId id_;
  int max_nodes_;
  NodeParams params_;
  /// The fixed-timeout fast path: > 0 iff params_.detector.kind ==
  /// kFixed, in which case a heard peer's stamp_ slot is its whole
  /// detector.
  double fixed_timeout_ms_ = -1.0;
  /// kPhi only: the z threshold every detector the node builds shares,
  /// solved once here instead of once per peer.
  double phi_z_threshold_ = 0.0;
  /// Dense per-peer state, one array per reader (see file header).
  std::vector<std::int32_t> counters_;
  std::vector<PeerHot> hot_;
  std::vector<double> stamp_;  // grace origin or last heartbeat; -1 unknown
  std::vector<std::int32_t> eval_tick_;  // -1 = unarmed
  std::vector<double> suspect_since_;    // -1 = not suspected
  /// Adaptive detector per peer; empty for kFixed (see file header).
  std::vector<std::unique_ptr<rt::PeerDetector>> detectors_;
  std::int64_t membership_version_ = 0;
  bool active_ = true;
  std::int64_t own_counter_ = 0;
  int digest_cursor_ = 0;
  int known_count_ = 0;
  /// Ids with recent counter advances, FIFO, in a ring of max_nodes
  /// slots: live entries are the hot_count_ slots from hot_head_ on,
  /// wrapping. Deduplicated via PeerHot::hot_remaining (> 0 <=> queued).
  /// select_digest consumes from the head and writes survivors back in
  /// place of the scanned prefix (see there).
  std::vector<std::uint16_t> hot_ring_;
  std::size_t hot_head_ = 0;
  std::size_t hot_count_ = 0;
};

}  // namespace rfd::cluster
