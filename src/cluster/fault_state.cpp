#include "cluster/fault_state.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace rfd::cluster {

FaultState::FaultState(int max_nodes, int initial_active) {
  RFD_REQUIRE(initial_active >= 0 && initial_active <= max_nodes);
  const std::size_t size = static_cast<std::size_t>(max_nodes);
  ever_active_.assign(size, 0);
  truth_active_.assign(size, 0);
  down_since_.assign(size, -1.0);
  up_since_.assign(size, -1.0);
  lying_.assign(size, 0);
  lie_delta_.assign(size, 0.0);
  lie_value_.assign(size, 0.0);
  for (NodeId i = 0; i < initial_active; ++i) {
    ever_active_[at(i)] = 1;
    truth_active_[at(i)] = 1;
    up_since_[at(i)] = 0.0;
  }
}

std::vector<NodeId> FaultState::active_contacts() const {
  std::vector<NodeId> contacts;
  for (NodeId j = 0; j < max_nodes(); ++j) {
    if (truly_active(j)) contacts.push_back(j);
  }
  return contacts;
}

FaultEffect FaultState::apply(const FaultEvent& event, double now,
                              ClusterNode* subject) {
  const NodeId j = event.node;
  // Every kind but the partition, storm and link ones names a node.
  if (!is_network_fault(event.kind) || event.kind == FaultKind::kSlowStart ||
      event.kind == FaultKind::kSlowEnd) {
    RFD_REQUIRE_MSG(j >= 0 && j < max_nodes(), "fault node out of range");
  }
  RFD_REQUIRE(subject == nullptr || subject->id() == j);
  const auto restart = [&] {
    if (subject == nullptr) return;
    subject->reset_peers(now, active_contacts());
    subject->set_active(true);
  };
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kLeave:
    case FaultKind::kExclude:
      if (!truly_active(j)) return FaultEffect::kIgnored;
      truth_active_[at(j)] = 0;
      down_since_[at(j)] = now;
      if (subject != nullptr) subject->set_active(false);
      return FaultEffect::kDown;
    case FaultKind::kRecover:
      if (!truly_down(j)) return FaultEffect::kIgnored;
      truth_active_[at(j)] = 1;
      down_since_[at(j)] = -1.0;
      up_since_[at(j)] = now;
      restart();
      return FaultEffect::kUp;
    case FaultKind::kJoin:
      if (ever_active(j)) return FaultEffect::kIgnored;
      ever_active_[at(j)] = 1;
      truth_active_[at(j)] = 1;
      up_since_[at(j)] = now;
      restart();
      return FaultEffect::kJoined;
    case FaultKind::kLieStart:
      if (subject != nullptr) {
        lying_[at(j)] = 1;
        lie_delta_[at(j)] = event.factor;
        // The lie diverges from the current truth, so a jump and a
        // regress both start from the counter peers last believed.
        lie_value_[at(j)] = static_cast<double>(subject->own_counter());
      }
      return FaultEffect::kOnset;
    case FaultKind::kLieEnd:
      if (subject != nullptr) lying_[at(j)] = 0;
      return FaultEffect::kRelief;
    case FaultKind::kPartition:
    case FaultKind::kStormStart:
    case FaultKind::kLinkDown:
    case FaultKind::kSlowStart:
      return FaultEffect::kOnset;
    case FaultKind::kHeal:
    case FaultKind::kStormEnd:
    case FaultKind::kLinkUp:
    case FaultKind::kSlowEnd:
      return FaultEffect::kRelief;
  }
  return FaultEffect::kIgnored;
}

void FaultState::save(ByteWriter& w) const {
  for (std::size_t p = 0; p < ever_active_.size(); ++p) {
    w.u8(static_cast<std::uint8_t>(ever_active_[p]));
    w.u8(static_cast<std::uint8_t>(truth_active_[p]));
    w.f64(down_since_[p]);
    w.u8(static_cast<std::uint8_t>(lying_[p]));
    w.f64(lie_delta_[p]);
    w.f64(lie_value_[p]);
    w.f64(up_since_[p]);
  }
}

bool FaultState::restore(ByteReader& r) {
  for (std::size_t p = 0; p < ever_active_.size(); ++p) {
    const std::uint8_t ever = r.u8();
    const std::uint8_t truth = r.u8();
    ever_active_[p] = static_cast<char>(ever);
    truth_active_[p] = static_cast<char>(truth);
    down_since_[p] = r.f64();
    const std::uint8_t lying = r.u8();
    lying_[p] = static_cast<char>(lying);
    lie_delta_[p] = r.f64();
    lie_value_[p] = r.f64();
    up_since_[p] = r.f64();
    // Flags are 0 or 1, only an ever-active node is up, exactly the down
    // ones carry a down time, exactly the ever-active ones an up time, no
    // later than the down time, and every number is finite.
    const double since = down_since_[p];
    const double up = up_since_[p];
    if (!r.ok() || ever > 1 || truth > ever || lying > 1 ||
        (ever > truth ? !(since >= 0.0) : since != -1.0) ||
        (ever != 0 ? !(up >= 0.0) : up != -1.0) ||
        (ever > truth && !(up <= since)) ||
        !std::isfinite(since + up + lie_delta_[p] + lie_value_[p])) {
      return false;
    }
  }
  return true;
}

bool is_network_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
    case FaultKind::kHeal:
    case FaultKind::kStormStart:
    case FaultKind::kStormEnd:
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kSlowStart:
    case FaultKind::kSlowEnd:
      return true;
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kJoin:
    case FaultKind::kLeave:
    case FaultKind::kLieStart:
    case FaultKind::kLieEnd:
    case FaultKind::kExclude:
      return false;
  }
  return false;
}

void apply_network_fault(const FaultEvent& event, rt::Network& net) {
  switch (event.kind) {
    case FaultKind::kPartition:
      net.set_partition(event.groups);
      break;
    case FaultKind::kHeal:
      net.clear_partition();
      break;
    case FaultKind::kStormStart:
      net.set_storm(event.extra_delay_ms, event.delay_prob);
      break;
    case FaultKind::kStormEnd:
      net.clear_storm();
      break;
    case FaultKind::kLinkDown:
      net.add_link_block(event.groups[0], event.groups[1]);
      break;
    case FaultKind::kLinkUp:
      net.remove_link_block(event.groups[0], event.groups[1]);
      break;
    case FaultKind::kSlowStart:
      net.set_delay_factor(event.node, event.factor);
      break;
    case FaultKind::kSlowEnd:
      net.set_delay_factor(event.node, 1.0);
      break;
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kJoin:
    case FaultKind::kLeave:
    case FaultKind::kLieStart:
    case FaultKind::kLieEnd:
    case FaultKind::kExclude:
      break;
  }
}

void QosLedger::save(ByteWriter& w) const {
  w.i64(raises_);
  w.i64(clears_);
  w.i64(false_suspicions_);
  w.i64(mistakes_);
  w.i64(mistake_us_);
}

bool QosLedger::restore(ByteReader& r) {
  raises_ = r.i64();
  clears_ = r.i64();
  false_suspicions_ = r.i64();
  mistakes_ = r.i64();
  mistake_us_ = r.i64();
  // Each clear and each false suspicion follows its own raise.
  return r.ok() && clears_ >= 0 && clears_ <= raises_ &&
         false_suspicions_ >= 0 && false_suspicions_ <= raises_ &&
         mistakes_ >= 0 && mistake_us_ >= 0;
}

}  // namespace rfd::cluster
