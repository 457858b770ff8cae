// Simulator tests: step semantics, determinism, fairness and delivery
// enforcement, crash handling, causal chains, trace validation, and the
// composition (framing) utilities.
#include <gtest/gtest.h>

#include "fd/perfect.hpp"
#include "model/environment.hpp"
#include "sim/composition.hpp"
#include "sim/simulator.hpp"

namespace rfd::sim {
namespace {

/// Test automaton: every process pings everyone once at start; each ping
/// is echoed back; processes count what they saw.
class PingPong final : public Automaton {
 public:
  explicit PingPong(ProcessId n) : n_(n) {}

  void on_start(Context& ctx) override {
    Writer w;
    w.u8(1);  // ping
    ctx.broadcast(w.data());
  }

  void on_step(Context& ctx, const Incoming* m) override {
    if (m == nullptr) return;
    Reader r(m->payload);
    const auto type = r.u8();
    if (type == 1) {
      ++pings_;
      Writer w;
      w.u8(2);  // pong
      ctx.send(m->src, std::move(w).take());
    } else {
      ++pongs_;
    }
  }

  int pings() const { return pings_; }
  int pongs() const { return pongs_; }

 private:
  ProcessId n_;
  int pings_ = 0;
  int pongs_ = 0;
};

std::vector<std::unique_ptr<Automaton>> ping_pong_fleet(ProcessId n) {
  std::vector<std::unique_ptr<Automaton>> out;
  for (ProcessId p = 0; p < n; ++p) {
    out.push_back(std::make_unique<PingPong>(n));
  }
  return out;
}

TEST(Simulator, AllMessagesDeliveredToCorrectProcesses) {
  const ProcessId n = 4;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 1);
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(7));
  sim.run_for(2000);
  for (ProcessId p = 0; p < n; ++p) {
    const auto& a = dynamic_cast<PingPong&>(sim.automaton(p));
    EXPECT_EQ(a.pings(), n - 1) << "p" << p;
    EXPECT_EQ(a.pongs(), n - 1) << "p" << p;
  }
  // Every sent message was received (all destinations correct).
  const Trace& trace = sim.trace();
  for (MessageId m = 0; m < trace.num_messages(); ++m) {
    EXPECT_NE(trace.received_by(m), kNoEvent);
  }
}

TEST(Simulator, DeterministicReplay) {
  const ProcessId n = 4;
  const auto pattern = model::cascade(n, 2, 100, 50);
  auto run_once = [&]() {
    fd::PerfectOracle oracle(pattern, 5);
    Simulator sim(pattern, oracle, ping_pong_fleet(n),
                  std::make_unique<RandomAdversary>(99));
    sim.run_for(1500);
    std::string digest;
    for (EventId e = 0; e < sim.trace().num_events(); ++e) {
      const Event& ev = sim.trace().event(e);
      digest += std::to_string(ev.process) + ":" + std::to_string(ev.time) +
                ":" + std::to_string(ev.received) + ";";
    }
    return digest;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, CrashedProcessesNeverStep) {
  // The alive set changes only at crash ticks; these inputs sit on its
  // boundaries.
  const ProcessId n = 3;
  const struct {
    const char* name;
    std::vector<Tick> crashes;
    std::vector<StepPause> pauses;
  } kCases[] = {
      {"one crash", {kNever, 40, kNever}, {}},
      {"a crash at tick 0", {0, kNever, kNever}, {}},
      {"two crashes at one tick", {kNever, 40, 40}, {}},
      {"a crash inside a pause", {kNever, 40, kNever}, {{1, 20, 60}}},
  };
  for (const auto& c : kCases) {
    const model::FailurePattern pattern(n, c.crashes);
    fd::PerfectOracle oracle(pattern, 2);
    SimConfig config;
    config.pauses = c.pauses;
    Simulator sim(pattern, oracle, ping_pong_fleet(n),
                  std::make_unique<RandomAdversary>(3), config);
    sim.run_for(500);
    for (EventId e = 0; e < sim.trace().num_events(); ++e) {
      const Event& ev = sim.trace().event(e);
      EXPECT_LT(ev.time, pattern.crash_tick(ev.process))
          << c.name << ": p" << ev.process;
    }
    const auto result = sim.trace().validate(oracle);
    EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
  }
}

TEST(Simulator, FairnessBound) {
  const ProcessId n = 5;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 2);
  AdversaryLimits limits;
  limits.starvation_bound = 32;
  SimConfig config;
  config.limits = limits;
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(12345), config);
  sim.run_for(3000);
  // Check gaps between consecutive steps of each process.
  std::vector<Tick> last(static_cast<std::size_t>(n), 0);
  for (EventId e = 0; e < sim.trace().num_events(); ++e) {
    const Event& ev = sim.trace().event(e);
    const auto idx = static_cast<std::size_t>(ev.process);
    EXPECT_LE(ev.time - last[idx], limits.starvation_bound + 1);
    last[idx] = ev.time;
  }
}

TEST(Simulator, DeliveryBound) {
  const ProcessId n = 3;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 2);
  AdversaryLimits limits;
  limits.delivery_bound = 48;
  SimConfig config;
  config.limits = limits;
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(77, /*lambda_prob=*/0.9),
                config);
  sim.run_for(3000);
  const Trace& trace = sim.trace();
  for (MessageId m = 0; m < trace.num_messages(); ++m) {
    const EventId recv = trace.received_by(m);
    ASSERT_NE(recv, kNoEvent);
    const Tick latency = trace.event(recv).time - trace.message(m).sent_at;
    // The receiver steps at most starvation_bound after the message aged
    // out, so the bound is conservative.
    EXPECT_LE(latency, limits.delivery_bound + config.limits.starvation_bound +
                           2);
  }
}

TEST(Simulator, ChannelBlocksDelayDelivery) {
  const ProcessId n = 3;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 2);
  SimConfig config;
  config.blocks.push_back({/*src=*/0, /*dst=*/1, /*until=*/500});
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(4), config);
  sim.run_for(1200);
  const Trace& trace = sim.trace();
  for (MessageId m = 0; m < trace.num_messages(); ++m) {
    const Message& msg = trace.message(m);
    if (msg.src == 0 && msg.dst == 1) {
      const EventId recv = trace.received_by(m);
      if (recv != kNoEvent) {
        EXPECT_GE(trace.event(recv).time, 500);
      }
    }
  }
}

TEST(Simulator, StepPausesHoldProcessesBack) {
  const ProcessId n = 3;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 2);
  SimConfig config;
  config.pauses.push_back({/*p=*/2, /*from=*/0, /*until=*/300});
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(4), config);
  sim.run_for(900);
  bool p2_stepped_late = false;
  for (EventId e = 0; e < sim.trace().num_events(); ++e) {
    const Event& ev = sim.trace().event(e);
    if (ev.process == 2) {
      EXPECT_GE(ev.time, 300);
      p2_stepped_late = true;
    }
  }
  EXPECT_TRUE(p2_stepped_late);
}

TEST(Simulator, TraceValidatesAgainstModel) {
  const ProcessId n = 4;
  const auto pattern = model::cascade(n, 2, 60, 30);
  fd::PerfectOracle oracle(pattern, 9);
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(21));
  sim.run_for(2500);
  const auto result = sim.trace().validate(oracle);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Simulator, RunUntilPredicate) {
  const ProcessId n = 3;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 1);
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RoundRobinAdversary>());
  const bool reached = sim.run_until(
      [](const Trace& t) { return t.num_messages() >= 6; }, 5000);
  EXPECT_TRUE(reached);
  EXPECT_GE(sim.trace().num_messages(), 6);
}

TEST(Trace, CausalChainCoversMessageSenders) {
  // p0 broadcasts at start; whoever receives it has p0 in its causal past.
  const ProcessId n = 3;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 1);
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RoundRobinAdversary>());
  sim.run_for(400);
  const Trace& trace = sim.trace();
  bool checked = false;
  for (EventId e = 0; e < trace.num_events(); ++e) {
    const Event& ev = trace.event(e);
    if (ev.received != kNoMessage && trace.message(ev.received).src == 0) {
      EXPECT_TRUE(trace.causal_message_senders(e).contains(0));
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(Trace, CausalChainIsTransitive) {
  // A pong received by q from r, where r's pong was caused by q's ping...
  // any event receiving a message has the sender's *whole* prior causal
  // context, including messages the sender had received.
  const ProcessId n = 4;
  const auto pattern = model::all_correct(n);
  fd::PerfectOracle oracle(pattern, 1);
  Simulator sim(pattern, oracle, ping_pong_fleet(n),
                std::make_unique<RandomAdversary>(31));
  sim.run_for(2000);
  const Trace& trace = sim.trace();
  // Find an event late in the run that received a message; its causal past
  // should span several processes.
  for (EventId e = trace.num_events() - 1; e >= 0; --e) {
    const Event& ev = trace.event(e);
    if (ev.received != kNoMessage && ev.time > 500) {
      const auto senders = trace.causal_message_senders(e);
      EXPECT_GE(senders.count(), 2);
      break;
    }
  }
}

TEST(Composition, FrameRoundTrip) {
  Bytes inner{std::byte{0xAA}, std::byte{0xBB}};
  const Bytes outer = frame(42, inner);
  const auto [tag, recovered] = unframe(outer);
  EXPECT_EQ(tag, 42);
  EXPECT_EQ(recovered, inner);
}

TEST(Composition, NestedFrames) {
  Bytes inner{std::byte{1}};
  const Bytes outer = frame(1, frame(2, inner));
  auto [t1, mid] = unframe(outer);
  auto [t2, core] = unframe(mid);
  EXPECT_EQ(t1, 1);
  EXPECT_EQ(t2, 2);
  EXPECT_EQ(core, inner);
}

}  // namespace
}  // namespace rfd::sim
