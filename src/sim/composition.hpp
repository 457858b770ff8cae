// Automaton composition: running several protocol instances over one
// simulated process.
//
// The paper's reduction T(D->P) runs "an infinite sequence of executions"
// of a consensus algorithm (Section 4.3), and TRB instances (i, k) each
// embed a consensus instance (Section 5). Composition is done by framing:
// a parent automaton prefixes child payloads with an instance tag and
// routes incoming framed messages to the right child, handing the child a
// SubInstanceContext that re-frames its sends and intercepts its
// decisions.
#pragma once

#include <functional>

#include "sim/automaton.hpp"

namespace rfd::sim {

/// Frames a child payload under an instance tag.
Bytes frame(InstanceId instance, const Bytes& inner);

/// Splits a framed payload into (instance, inner payload).
std::pair<InstanceId, Bytes> unframe(const Bytes& outer);

/// Context decorator that forwards everything to a parent context.
/// Subclasses override the aspects they interpose on.
class ForwardingContext : public Context {
 public:
  explicit ForwardingContext(Context& parent) : parent_(&parent) {}

  ProcessId self() const override { return parent_->self(); }
  ProcessId n() const override { return parent_->n(); }
  Tick now() const override { return parent_->now(); }
  const fd::FdValue& fd() const override { return parent_->fd(); }
  void send_tagged(ProcessId dst, Bytes payload,
                   const ProcessSet& alive_tags) override {
    parent_->send_tagged(dst, std::move(payload), alive_tags);
  }
  void decide(InstanceId instance, Value v) override {
    parent_->decide(instance, v);
  }
  void deliver(InstanceId instance, Value v) override {
    parent_->deliver(instance, v);
  }

 protected:
  Context* parent_;
};

/// The context a child instance runs under: its sends are framed with the
/// instance tag; its decide()/deliver() calls are recorded under the tag
/// and optionally reported to the parent through hooks.
class SubInstanceContext final : public ForwardingContext {
 public:
  using ValueHook = std::function<void(Value)>;

  SubInstanceContext(Context& parent, InstanceId tag,
                     ValueHook on_decide = nullptr,
                     ValueHook on_deliver = nullptr, bool record = true)
      : ForwardingContext(parent),
        tag_(tag),
        on_decide_(std::move(on_decide)),
        on_deliver_(std::move(on_deliver)),
        record_(record) {}

  void send_tagged(ProcessId dst, Bytes payload,
                   const ProcessSet& alive_tags) override {
    parent_->send_tagged(dst, frame(tag_, payload), alive_tags);
  }

  void decide(InstanceId /*inner*/, Value v) override {
    if (record_) parent_->decide(tag_, v);
    if (on_decide_) on_decide_(v);
  }

  void deliver(InstanceId /*inner*/, Value v) override {
    if (record_) parent_->deliver(tag_, v);
    if (on_deliver_) on_deliver_(v);
  }

 private:
  InstanceId tag_;
  ValueHook on_decide_;
  ValueHook on_deliver_;
  bool record_;
};

}  // namespace rfd::sim
