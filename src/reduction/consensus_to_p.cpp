#include "reduction/consensus_to_p.hpp"

#include "algo/consensus/ct_strong.hpp"
#include "common/assert.hpp"

namespace rfd::red {

/// Wires one child instance into the wrapper: outgoing payloads are framed
/// with the instance tag and tagged with the accumulated alive set;
/// decisions flow back to the wrapper instead of the trace.
class ConsensusToP::ChildContext final : public sim::ForwardingContext {
 public:
  ChildContext(sim::Context& parent, ConsensusToP& owner, InstanceId k)
      : ForwardingContext(parent), owner_(&owner), k_(k) {}

  void send_tagged(ProcessId dst, Bytes payload,
                   const ProcessSet& tags) override {
    // Addition 1 of T(D->P): every message carries the alive information
    // accumulated by its sender (which always includes the sender itself).
    ProcessSet combined = owner_->children_.at(k_).known_alive;
    if (tags.universe_size() == combined.universe_size()) {
      combined |= tags;
    }
    parent_->send_tagged(dst, sim::frame(k_, std::move(payload)), combined);
  }

  void decide(InstanceId /*inner*/, Value v) override {
    owner_->on_child_decides(*parent_, k_, v);
  }

 private:
  ConsensusToP* owner_;
  InstanceId k_;
};

ConsensusToP::ConsensusToP(ProcessId n, ConsensusFactory factory,
                           InstanceId max_instances, Tick min_instance_gap)
    : n_(n),
      factory_(std::move(factory)),
      max_instances_(max_instances),
      min_instance_gap_(min_instance_gap),
      output_(n) {
  RFD_REQUIRE(n >= 2);
  RFD_REQUIRE(max_instances >= 1);
  RFD_REQUIRE(min_instance_gap >= 0);
  RFD_REQUIRE(factory_ != nullptr);
}

ConsensusToP::ConsensusFactory ConsensusToP::ct_strong_factory(ProcessId n) {
  return [n](InstanceId k, ProcessId self) -> std::unique_ptr<sim::Automaton> {
    // Distinct proposals per process and instance keep the decision values
    // informative in traces; the reduction itself never looks at them.
    const Value proposal = static_cast<Value>(self) + 1 +
                           static_cast<Value>(k) * 1000;
    return std::make_unique<algo::CtStrongConsensus>(n, proposal);
  };
}

ConsensusToP::Child& ConsensusToP::ensure_child(sim::Context& ctx,
                                                InstanceId k) {
  auto it = children_.find(k);
  if (it != children_.end()) return it->second;

  Child child;
  child.automaton = factory_(k, ctx.self());
  RFD_REQUIRE(child.automaton != nullptr);
  child.known_alive = ProcessSet(n_);
  child.known_alive.insert(ctx.self());
  auto [pos, inserted] = children_.emplace(k, std::move(child));
  RFD_REQUIRE(inserted);

  ChildContext sub(ctx, *this, k);
  pos->second.automaton->on_start(sub);
  return pos->second;
}

void ConsensusToP::on_child_decides(sim::Context& ctx, InstanceId k,
                                    Value /*v*/) {
  Child& child = children_.at(k);
  if (child.decided) return;
  child.decided = true;

  // Addition 3 of T(D->P): suspect exactly the processes whose alive tag
  // is missing from this decision event.
  const ProcessSet missing = child.known_alive.complement();
  missing.for_each([&](ProcessId q) {
    if (!output_.contains(q)) {
      output_.insert(q);
      timeline_.emplace_back(ctx.now(), q);
    }
  });

  maybe_advance(ctx);
}

void ConsensusToP::maybe_advance(sim::Context& ctx) {
  while (local_k_ + 1 < max_instances_) {
    const auto it = children_.find(local_k_);
    if (it == children_.end() || !it->second.decided) return;
    if (ctx.now() < last_instance_start_ + min_instance_gap_) return;
    ++local_k_;
    last_instance_start_ = ctx.now();
    ensure_child(ctx, local_k_);
  }
}

void ConsensusToP::on_start(sim::Context& ctx) {
  last_instance_start_ = ctx.now();
  ensure_child(ctx, 0);
}

void ConsensusToP::on_step(sim::Context& ctx, const sim::Incoming* m) {
  if (m != nullptr) {
    auto [k, inner] = sim::unframe(m->payload);
    if (k < 0 || k >= max_instances_) return;
    Child& child = ensure_child(ctx, k);
    // Addition 2 of T(D->P): extract the alive tags and attach them to
    // everything this reception causes.
    if (m->alive_tags.universe_size() == n_) {
      child.known_alive |= m->alive_tags;
    }
    // Decided children keep participating: stragglers in instance k may
    // still need this process's phase messages.
    ChildContext sub(ctx, *this, k);
    const sim::Incoming inner_msg{m->src, inner, m->alive_tags, m->id};
    child.automaton->on_step(sub, &inner_msg);
  } else {
    // Lambda step: let undecided children re-check their suspicion-based
    // waits.
    for (auto& [k, child] : children_) {
      if (child.decided) continue;
      ChildContext sub(ctx, *this, k);
      child.automaton->on_step(sub, nullptr);
    }
  }
  // The instance throttle is time-based; re-check it on every step.
  maybe_advance(ctx);
}

}  // namespace rfd::red
