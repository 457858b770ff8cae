#include "cluster/node.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace rfd::cluster {

ClusterNode::ClusterNode(NodeId id, int max_nodes, NodeParams params)
    : id_(id), max_nodes_(max_nodes), params_(params),
      counters_(static_cast<std::size_t>(max_nodes), 0),
      hot_(static_cast<std::size_t>(max_nodes)),
      stamp_(static_cast<std::size_t>(max_nodes), -1.0),
      eval_tick_(static_cast<std::size_t>(max_nodes), -1),
      suspect_since_(static_cast<std::size_t>(max_nodes), -1.0),
      digest_cursor_(static_cast<int>(id) % max_nodes),
      hot_ring_(static_cast<std::size_t>(max_nodes)) {
  RFD_REQUIRE(id >= 0 && id < max_nodes);
  RFD_REQUIRE_MSG(max_nodes <= kMaxNodes,
                  "max_nodes exceeds 65536, the bound of 16-bit peer ids");
  RFD_REQUIRE(params_.bootstrap_grace_ms > 0.0);
  // 0 would re-queue a peer on every observe() without any topology ever
  // draining it - unbounded hot-queue growth; the count is stored as one
  // dense byte per peer, hence the upper bound.
  RFD_REQUIRE(params_.hot_transmissions >= 1 &&
              params_.hot_transmissions <= 127);
  if (params_.detector.kind == rt::DetectorKind::kFixed) {
    fixed_timeout_ms_ = params_.detector.fixed.timeout_ms;
    RFD_REQUIRE(fixed_timeout_ms_ > 0.0);
  } else {
    detectors_.resize(static_cast<std::size_t>(max_nodes));
    if (params_.detector.kind == rt::DetectorKind::kPhi) {
      phi_z_threshold_ = rt::phi_z_threshold(params_.detector.phi);
    }
  }
}

void ClusterNode::reset_peers(double now,
                              const std::vector<NodeId>& contacts) {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(hot_.begin(), hot_.end(), PeerHot{});
  std::fill(stamp_.begin(), stamp_.end(), -1.0);
  std::fill(eval_tick_.begin(), eval_tick_.end(), -1);
  std::fill(suspect_since_.begin(), suspect_since_.end(), -1.0);
  for (std::unique_ptr<rt::PeerDetector>& detector : detectors_) {
    detector.reset();
  }
  hot_head_ = 0;
  hot_count_ = 0;
  known_count_ = 0;
  ++membership_version_;
  for (NodeId contact : contacts) {
    learn_peer(contact, now);
  }
}

void ClusterNode::save_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.i32(id_);
  w.i32(max_nodes_);
  w.i64(membership_version_);
  w.u8(active_ ? 1 : 0);
  w.i64(own_counter_);
  w.i32(digest_cursor_);
  w.i32(known_count_);
  for (std::int32_t c : counters_) w.i32(c);
  for (std::size_t p = 0; p < hot_.size(); ++p) {
    // The heartbeat slot: a heard peer's stamp, else -1.0 ("no advance
    // yet"), which is all an adaptive node writes. The heard bit stays
    // implicit; restore derives it from a heartbeat >= 0.
    const std::uint8_t flags = hot_[p].flags;
    w.f64((flags & kHeardFlag) != 0 ? stamp_[p] : -1.0);
    w.u8(flags & static_cast<std::uint8_t>(~kHeardFlag));
    w.u8(static_cast<std::uint8_t>(hot_[p].hot_remaining));
  }
  // Eval ticks travel as i64, so checkpoints written before the field
  // narrowed to 32 bits stay readable.
  for (std::int32_t tick : eval_tick_) w.i64(tick);
  std::vector<double> detector_state;
  for (std::size_t p = 0; p < stamp_.size(); ++p) {
    // The known_since slot. A heard kFixed peer's grace origin is gone,
    // so its slot carries the stamp too, which restore ignores.
    w.f64(stamp_[p]);
    w.f64(suspect_since_[p]);
    const rt::PeerDetector* detector =
        detectors_.empty() ? nullptr : detectors_[p].get();
    w.u8(detector != nullptr ? 1 : 0);
    if (detector != nullptr) {
      detector_state.clear();
      detector->save_state(detector_state);
      w.u32(static_cast<std::uint32_t>(detector_state.size()));
      for (double x : detector_state) w.f64(x);
    }
  }
  // The live ring region, in FIFO order; the restored ring starts at
  // slot 0.
  w.u32(static_cast<std::uint32_t>(hot_count_));
  for (std::size_t i = 0; i < hot_count_; ++i) {
    w.i32(hot_ring_[(hot_head_ + i) % hot_ring_.size()]);
  }
}

bool ClusterNode::restore_state(const std::uint8_t* data, std::size_t size,
                                std::size_t& consumed) {
  ByteReader r(data, size);
  const std::int32_t id = r.i32();
  const std::int32_t max_nodes = r.i32();
  if (!r.ok() || id != id_ || max_nodes != max_nodes_) return false;
  membership_version_ = r.i64();
  active_ = r.u8() != 0;
  own_counter_ = r.i64();
  digest_cursor_ = r.i32();
  known_count_ = r.i32();
  for (std::int32_t& c : counters_) c = r.i32();
  for (std::size_t p = 0; p < hot_.size(); ++p) {
    // A heartbeat >= 0 on file means heard; a kFixed node reads any
    // negative time as "no advance yet", an adaptive one only -1.0.
    const double last = r.f64();
    std::uint8_t flags = r.u8();
    const bool fixed = fixed_timeout_ms_ > 0.0;
    if (std::isnan(last) || (!fixed && last != -1.0) ||
        (flags & kHeardFlag) != 0) {
      return false;
    }
    if (last >= 0.0) {
      // The stamp holds one time: heard implies known, or a later
      // learn_peer would overwrite the heartbeat with a grace origin.
      if ((flags & kKnownFlag) == 0) return false;
      flags |= kHeardFlag;
      stamp_[p] = last;
    }
    hot_[p].flags = flags;
    hot_[p].hot_remaining = static_cast<std::int8_t>(r.u8());
  }
  for (std::int32_t& slot : eval_tick_) {
    // The engine arms ticks in [1, INT32_MAX] (see eval_tick()).
    const std::int64_t tick = r.i64();
    if (tick < -1 || tick > std::numeric_limits<std::int32_t>::max()) {
      return false;
    }
    slot = static_cast<std::int32_t>(tick);
  }
  std::vector<double> detector_state;
  for (std::size_t p = 0; p < stamp_.size(); ++p) {
    const double known_since = r.f64();
    if ((hot_[p].flags & kHeardFlag) == 0) stamp_[p] = known_since;
    suspect_since_[p] = r.f64();
    const bool has_detector = r.u8() != 0;
    if (!has_detector) {
      if (!detectors_.empty()) detectors_[p].reset();
      continue;
    }
    // A kFixed node keeps no detector instances.
    if (detectors_.empty()) return false;
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > (1u << 20)) return false;
    detector_state.resize(count);
    for (double& x : detector_state) x = r.f64();
    if (!r.ok()) return false;
    detectors_[p] = rt::make_detector(params_.detector, phi_z_threshold_);
    const double* cursor = detector_state.data();
    const double* end = cursor + detector_state.size();
    if (!detectors_[p]->restore_state(cursor, end) || cursor != end) {
      return false;
    }
  }
  const std::uint32_t queued = r.u32();
  if (!r.ok() || queued > static_cast<std::uint32_t>(max_nodes_)) {
    return false;
  }
  // The ring holds the queue only while "queued <=> budget > 0" does:
  // every id at most once, each with budget left, none with budget
  // missing from the queue.
  std::vector<bool> queued_ids(static_cast<std::size_t>(max_nodes_));
  for (std::uint32_t i = 0; i < queued; ++i) {
    const NodeId peer = r.i32();
    if (!r.ok() || peer < 0 || peer >= max_nodes_) return false;
    const std::size_t p = static_cast<std::size_t>(peer);
    if (queued_ids[p] || hot_[p].hot_remaining <= 0) return false;
    queued_ids[p] = true;
    hot_ring_[i] = static_cast<std::uint16_t>(peer);
  }
  for (std::size_t p = 0; p < hot_.size(); ++p) {
    if (hot_[p].hot_remaining > 0 && !queued_ids[p]) return false;
  }
  hot_head_ = 0;
  hot_count_ = queued;
  if (!r.ok()) return false;
  // advance_own_counter() keeps the own counter in [0, INT32_MAX].
  if (own_counter_ < 0 ||
      own_counter_ > std::numeric_limits<std::int32_t>::max() ||
      digest_cursor_ < 0 || digest_cursor_ >= max_nodes_ ||
      known_count_ < 0 || known_count_ > max_nodes_) {
    return false;
  }
  consumed = size - r.remaining();
  return true;
}

}  // namespace rfd::cluster
