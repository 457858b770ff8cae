#include "cluster/node.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace rfd::cluster {

ClusterNode::ClusterNode(NodeId id, int max_nodes, NodeParams params)
    : id_(id), max_nodes_(max_nodes), params_(params),
      counters_(static_cast<std::size_t>(max_nodes), 0),
      hot_(static_cast<std::size_t>(max_nodes)),
      eval_tick_(static_cast<std::size_t>(max_nodes), -1),
      records_(static_cast<std::size_t>(max_nodes)),
      digest_cursor_(static_cast<int>(id) % max_nodes) {
  RFD_REQUIRE(id >= 0 && id < max_nodes);
  RFD_REQUIRE(params_.bootstrap_grace_ms > 0.0);
  // 0 would re-queue a peer on every observe() without any topology ever
  // draining it - unbounded hot-queue growth; the count is stored as one
  // dense byte per peer, hence the upper bound.
  RFD_REQUIRE(params_.hot_transmissions >= 1 &&
              params_.hot_transmissions <= 127);
  if (params_.detector.kind == rt::DetectorKind::kFixed) {
    fixed_timeout_ms_ = params_.detector.fixed.timeout_ms;
    RFD_REQUIRE(fixed_timeout_ms_ > 0.0);
  }
}

void ClusterNode::reset_peers(double now,
                              const std::vector<NodeId>& contacts) {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(hot_.begin(), hot_.end(), PeerHot{});
  std::fill(eval_tick_.begin(), eval_tick_.end(), std::int64_t{-1});
  for (PeerRecord& r : records_) {
    r = PeerRecord{};
  }
  hot_queue_.clear();
  hot_head_ = 0;
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
  for (const PeerHot& h : hot_) {
    w.f64(h.last_heartbeat);
    w.u8(h.flags);
    w.u8(static_cast<std::uint8_t>(h.hot_remaining));
  }
  for (std::int64_t t : eval_tick_) w.i64(t);
  std::vector<double> detector_state;
  for (const PeerRecord& r : records_) {
    w.f64(r.known_since);
    w.f64(r.suspect_since);
    w.u8(r.detector != nullptr ? 1 : 0);
    if (r.detector != nullptr) {
      detector_state.clear();
      r.detector->save_state(detector_state);
      w.u32(static_cast<std::uint32_t>(detector_state.size()));
      for (double x : detector_state) w.f64(x);
    }
  }
  // Only the live [hot_head_, size()) region of the hot queue matters;
  // the restored queue starts compacted at head 0.
  w.u32(static_cast<std::uint32_t>(hot_queue_.size() - hot_head_));
  for (std::size_t i = hot_head_; i < hot_queue_.size(); ++i) {
    w.i32(hot_queue_[i]);
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
  for (PeerHot& h : hot_) {
    h.last_heartbeat = r.f64();
    h.flags = r.u8();
    h.hot_remaining = static_cast<std::int8_t>(r.u8());
  }
  for (std::int64_t& t : eval_tick_) t = r.i64();
  std::vector<double> detector_state;
  for (PeerRecord& rec : records_) {
    rec.known_since = r.f64();
    rec.suspect_since = r.f64();
    const bool has_detector = r.u8() != 0;
    if (!has_detector) {
      rec.detector.reset();
      continue;
    }
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > (1u << 20)) return false;
    detector_state.resize(count);
    for (double& x : detector_state) x = r.f64();
    if (!r.ok()) return false;
    rec.detector = rt::make_detector(params_.detector);
    const double* cursor = detector_state.data();
    const double* end = cursor + detector_state.size();
    if (!rec.detector->restore_state(cursor, end) || cursor != end) {
      return false;
    }
  }
  const std::uint32_t queued = r.u32();
  if (!r.ok() || queued > static_cast<std::uint32_t>(max_nodes_)) {
    return false;
  }
  hot_queue_.resize(queued);
  for (NodeId& peer : hot_queue_) {
    peer = r.i32();
    if (peer < 0 || peer >= max_nodes_) return false;
  }
  hot_head_ = 0;
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
