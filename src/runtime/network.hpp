// The simulated partially synchronous network for the runtime layer.
//
// Delays are min_delay + lognormal jitter; messages are lost independently
// with loss_prob. Before `gst_ms` (the Global Stabilization Time of the
// partial-synchrony literature) an extra delay penalty applies with
// probability chaos_prob, modelling the unstable period during which even
// well-tuned timeouts misfire - precisely the regime that produces the
// false suspicions the paper's group-membership discussion is about.
//
// The network owns no clock: every call that depends on simulated time
// (the GST test, the timestamp of a drop record) takes the caller's
// `now`, so one network serves an event queue, the engine's pump
// rotation or a transport's driver time alike.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "obs/profile.hpp"
#include "obs/trace_writer.hpp"

namespace rfd::rt {

using NodeId = std::int32_t;

struct NetworkParams {
  double min_delay_ms = 0.5;
  double jitter_mu = 0.0;      // lognormal mu of the jitter component (ms)
  double jitter_sigma = 0.6;   // lognormal sigma
  double loss_prob = 0.0;
  double gst_ms = 0.0;         // 0 = stable from the start
  double pre_gst_extra_ms = 0.0;
  double pre_gst_chaos_prob = 0.3;
};

class Network {
 public:
  Network(std::uint64_t seed, NetworkParams params);

  /// Draws the fate of one message from `from` to `to` sent at `now`:
  /// the delivery delay in ms, or nullopt when the message is dropped
  /// (partition cut, random loss). Updates sent/dropped accounting either
  /// way. Callers on hot paths use this *before* materializing any
  /// delivery record, so a dropped message costs no allocation; the
  /// partition/loss/storm verdicts and the delay are drawn in a fixed RNG
  /// order, so runs are reproducible. Each message draws its own delay,
  /// so there is no FIFO guarantee (like UDP heartbeats). A caller with
  /// an event queue schedules the delivery `delay` after `now` itself.
  ///
  /// Randomness is drawn from a per-source stream (derived from the
  /// network seed and `from`), so the verdict/delay sequence each sender
  /// sees depends only on its own send history - the property that lets
  /// the sharded cluster engine replicate one logical network across
  /// shard-local instances and stay bit-for-bit identical for any shard
  /// count. A negative `from` falls back to the shared legacy stream.
  std::optional<double> route(NodeId from, NodeId to, double now);

  /// One sample of the delay distribution in force at `now` (for
  /// analysis), drawn from the shared legacy stream.
  double sample_delay(double now);

  /// Installs a partition: nodes in different `groups` entries cannot
  /// exchange messages until heal. Nodes absent from every group behave
  /// as members of groups[0]. Replaces any previous partition.
  void set_partition(const std::vector<std::vector<NodeId>>& groups);

  /// Removes the partition; all links work again.
  void clear_partition();

  /// Whether a message from `a` to `b` currently crosses a partition cut.
  bool partitioned(NodeId a, NodeId b) const;

  /// Installs a *directed* block: messages from any node in `from` to any
  /// node in `to` are dropped until the matching remove. Rules stack (and
  /// compose with the component partition), which is what asymmetric
  /// partitions and flapping links are made of: a one-way cut is a single
  /// rule, a symmetric flap is a rule pair toggled on a schedule.
  void add_link_block(const std::vector<NodeId>& from,
                      const std::vector<NodeId>& to);

  /// Removes the first installed rule with exactly these endpoint sets;
  /// returns false when no such rule is installed.
  bool remove_link_block(const std::vector<NodeId>& from,
                         const std::vector<NodeId>& to);

  /// Whether a message from `a` to `b` currently hits a directed block.
  bool link_blocked(NodeId a, NodeId b) const;

  /// Slow-but-alive ("performance failure"): every delay drawn for a
  /// message *sent by* `node` is multiplied by `factor` (1.0 = normal).
  /// The factor scales the sampled delay after all RNG draws, so toggling
  /// slowness never perturbs any random stream - runs with and without a
  /// slow node stay draw-for-draw aligned.
  void set_delay_factor(NodeId node, double factor);
  double delay_factor(NodeId node) const;

  /// Starts a delay storm: until cleared, each message independently
  /// suffers `extra_ms` additional delay with probability `prob`. Models
  /// transient congestion episodes (the pre-GST penalty is the permanent
  /// variant; this one is scriptable mid-run).
  void set_storm(double extra_ms, double prob);
  void clear_storm();

  std::int64_t sent() const { return sent_; }
  std::int64_t dropped() const { return dropped_; }
  /// Drops attributable to the installed partition (subset of dropped()).
  std::int64_t partition_dropped() const { return partition_dropped_; }
  /// Drops attributable to directed link blocks (subset of dropped()).
  std::int64_t link_dropped() const { return link_dropped_; }

  /// Checkpoint hooks: the verdict/delay RNG streams (the shared legacy
  /// stream first, then every lazily created per-source stream) plus the
  /// sent/dropped accounting. Fault state (partitions, link rules, slow
  /// factors, storm) is intentionally NOT saved - it is a pure function
  /// of the scenario timeline, which a resuming driver replays up to the
  /// checkpoint time. Restoring makes this network draw the exact
  /// verdict/delay sequence the saved one would have drawn next.
  void save_rng_state(std::vector<std::array<std::uint64_t, 5>>& out) const;
  void restore_rng_state(
      const std::vector<std::array<std::uint64_t, 5>>& streams);
  void save_accounting(std::int64_t& sent, std::int64_t& dropped,
                       std::int64_t& partition_dropped,
                       std::int64_t& link_dropped) const;
  void restore_accounting(std::int64_t sent, std::int64_t dropped,
                          std::int64_t partition_dropped,
                          std::int64_t link_dropped);

  /// Attaches the trace sink: when non-null, every drop verdict emits a
  /// "drop" record at the send time, naming the reason (partition, link
  /// or loss). Null (the default) costs one predictable branch per drop.
  void set_trace(obs::RecordSink* trace) { trace_ = trace; }
  /// Attaches the profiler: route() is timed as obs::Phase::kRoute.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

 private:
  int component_of(NodeId node) const;
  void trace_drop(NodeId from, NodeId to, const char* why, double now);
  /// Per-source RNG stream (lazily created, deterministically seeded from
  /// the network seed and `from`); the shared legacy stream for from < 0.
  Rng& src_rng(NodeId from);
  double sample_delay(Rng& rng, double now);

  std::uint64_t seed_;
  Rng rng_;
  std::vector<Rng> src_rngs_;
  NetworkParams params_;
  obs::RecordSink* trace_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  std::int64_t sent_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t partition_dropped_ = 0;
  /// Empty: no partition. Otherwise component id per node; nodes beyond
  /// the vector (or unlisted, marked -1) belong to component 0.
  std::vector<int> component_;
  /// Directed block rule: membership masks over node ids (nodes beyond a
  /// mask are not members). Kept as the installed endpoint sets too so
  /// remove_link_block can match rules structurally.
  struct LinkRule {
    std::vector<NodeId> from_ids;  // sorted, deduplicated
    std::vector<NodeId> to_ids;
    std::vector<char> from_mask;
    std::vector<char> to_mask;
  };
  std::vector<LinkRule> link_rules_;
  /// Empty = every node at 1.0; nodes beyond the vector are at 1.0.
  std::vector<double> delay_factor_;
  double storm_extra_ms_ = 0.0;
  double storm_prob_ = 0.0;
  std::int64_t link_dropped_ = 0;
};

}  // namespace rfd::rt
