#include "runtime/network.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rfd::rt {

Network::Network(std::uint64_t seed, NetworkParams params)
    : seed_(seed), rng_(seed), params_(params) {
  RFD_REQUIRE(params.min_delay_ms >= 0.0);
  RFD_REQUIRE(params.loss_prob >= 0.0 && params.loss_prob < 1.0);
}

Rng& Network::src_rng(NodeId from) {
  if (from < 0) return rng_;
  const std::size_t index = static_cast<std::size_t>(from);
  while (src_rngs_.size() <= index) {
    // Deterministic per-source seeding: stream k depends only on the
    // network seed and k, never on creation order or traffic history.
    src_rngs_.emplace_back(mix_seed(
        seed_, 0x50c5'0000u + static_cast<std::uint64_t>(src_rngs_.size())));
  }
  return src_rngs_[index];
}

void Network::save_rng_state(
    std::vector<std::array<std::uint64_t, 5>>& out) const {
  out.clear();
  out.reserve(src_rngs_.size() + 1);
  out.push_back(rng_.save_state());
  for (const Rng& rng : src_rngs_) out.push_back(rng.save_state());
}

void Network::restore_rng_state(
    const std::vector<std::array<std::uint64_t, 5>>& streams) {
  RFD_REQUIRE_MSG(!streams.empty(),
                  "network RNG restore needs at least the legacy stream");
  rng_.restore_state(streams.front());
  src_rngs_.clear();
  src_rngs_.reserve(streams.size() - 1);
  for (std::size_t i = 1; i < streams.size(); ++i) {
    src_rngs_.emplace_back(0);
    src_rngs_.back().restore_state(streams[i]);
  }
}

void Network::save_accounting(std::int64_t& sent, std::int64_t& dropped,
                              std::int64_t& partition_dropped,
                              std::int64_t& link_dropped) const {
  sent = sent_;
  dropped = dropped_;
  partition_dropped = partition_dropped_;
  link_dropped = link_dropped_;
}

void Network::restore_accounting(std::int64_t sent, std::int64_t dropped,
                                 std::int64_t partition_dropped,
                                 std::int64_t link_dropped) {
  sent_ = sent;
  dropped_ = dropped;
  partition_dropped_ = partition_dropped;
  link_dropped_ = link_dropped;
}

double Network::sample_delay(Rng& rng, double now) {
  double delay =
      params_.min_delay_ms + rng.lognormal(params_.jitter_mu,
                                           params_.jitter_sigma);
  if (now < params_.gst_ms &&
      rng.chance(params_.pre_gst_chaos_prob)) {
    delay += params_.pre_gst_extra_ms;
  }
  if (storm_extra_ms_ > 0.0 && rng.chance(storm_prob_)) {
    delay += storm_extra_ms_;
  }
  return delay;
}

double Network::sample_delay(double now) { return sample_delay(rng_, now); }

int Network::component_of(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= component_.size()) {
    return 0;
  }
  const int c = component_[static_cast<std::size_t>(node)];
  return c < 0 ? 0 : c;
}

void Network::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  RFD_REQUIRE(!groups.empty());
  component_.clear();
  NodeId max_node = -1;
  for (const auto& group : groups) {
    for (NodeId node : group) {
      RFD_REQUIRE(node >= 0);
      max_node = std::max(max_node, node);
    }
  }
  component_.assign(static_cast<std::size_t>(max_node + 1), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId node : groups[g]) {
      component_[static_cast<std::size_t>(node)] = static_cast<int>(g);
    }
  }
}

void Network::clear_partition() { component_.clear(); }

bool Network::partitioned(NodeId a, NodeId b) const {
  if (component_.empty()) return false;
  return component_of(a) != component_of(b);
}

namespace {

std::vector<NodeId> sorted_unique(const std::vector<NodeId>& ids) {
  std::vector<NodeId> out = ids;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<char> mask_of(const std::vector<NodeId>& ids) {
  std::vector<char> mask;
  for (const NodeId id : ids) {
    if (static_cast<std::size_t>(id) >= mask.size()) {
      mask.resize(static_cast<std::size_t>(id) + 1, 0);
    }
    mask[static_cast<std::size_t>(id)] = 1;
  }
  return mask;
}

bool in_mask(const std::vector<char>& mask, NodeId node) {
  return node >= 0 && static_cast<std::size_t>(node) < mask.size() &&
         mask[static_cast<std::size_t>(node)] != 0;
}

}  // namespace

void Network::add_link_block(const std::vector<NodeId>& from,
                             const std::vector<NodeId>& to) {
  RFD_REQUIRE(!from.empty() && !to.empty());
  for (const NodeId node : from) RFD_REQUIRE(node >= 0);
  for (const NodeId node : to) RFD_REQUIRE(node >= 0);
  LinkRule rule;
  rule.from_ids = sorted_unique(from);
  rule.to_ids = sorted_unique(to);
  rule.from_mask = mask_of(rule.from_ids);
  rule.to_mask = mask_of(rule.to_ids);
  link_rules_.push_back(std::move(rule));
}

bool Network::remove_link_block(const std::vector<NodeId>& from,
                                const std::vector<NodeId>& to) {
  const std::vector<NodeId> from_ids = sorted_unique(from);
  const std::vector<NodeId> to_ids = sorted_unique(to);
  for (auto it = link_rules_.begin(); it != link_rules_.end(); ++it) {
    if (it->from_ids == from_ids && it->to_ids == to_ids) {
      link_rules_.erase(it);
      return true;
    }
  }
  return false;
}

bool Network::link_blocked(NodeId a, NodeId b) const {
  for (const LinkRule& rule : link_rules_) {
    if (in_mask(rule.from_mask, a) && in_mask(rule.to_mask, b)) return true;
  }
  return false;
}

void Network::set_delay_factor(NodeId node, double factor) {
  RFD_REQUIRE(node >= 0);
  RFD_REQUIRE(factor > 0.0);
  if (static_cast<std::size_t>(node) >= delay_factor_.size()) {
    if (factor == 1.0) return;
    delay_factor_.resize(static_cast<std::size_t>(node) + 1, 1.0);
  }
  delay_factor_[static_cast<std::size_t>(node)] = factor;
}

double Network::delay_factor(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= delay_factor_.size()) {
    return 1.0;
  }
  return delay_factor_[static_cast<std::size_t>(node)];
}

void Network::set_storm(double extra_ms, double prob) {
  RFD_REQUIRE(extra_ms >= 0.0);
  storm_extra_ms_ = extra_ms;
  storm_prob_ = prob;
}

void Network::clear_storm() {
  storm_extra_ms_ = 0.0;
  storm_prob_ = 0.0;
}

void Network::trace_drop(NodeId from, NodeId to, const char* why,
                         double now) {
  obs::Record r;
  r.type = obs::RecordType::kDrop;
  r.t = now;
  r.a = from;
  r.b = to;
  r.s = why;
  trace_->emit(r);
}

std::optional<double> Network::route(NodeId from, NodeId to, double now) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kRoute);
  ++sent_;
  if (partitioned(from, to)) {
    ++dropped_;
    ++partition_dropped_;
    if (trace_ != nullptr) trace_drop(from, to, "partition", now);
    return std::nullopt;
  }
  // Directed blocks are checked before any RNG draw, so installing or
  // removing one never shifts a sender's random stream.
  if (!link_rules_.empty() && link_blocked(from, to)) {
    ++dropped_;
    ++link_dropped_;
    if (trace_ != nullptr) trace_drop(from, to, "link", now);
    return std::nullopt;
  }
  Rng& rng = src_rng(from);
  if (rng.chance(params_.loss_prob)) {
    ++dropped_;
    if (trace_ != nullptr) trace_drop(from, to, "loss", now);
    return std::nullopt;
  }
  const double delay = sample_delay(rng, now);
  const double factor = delay_factor(from);
  return factor == 1.0 ? delay : delay * factor;
}

}  // namespace rfd::rt
