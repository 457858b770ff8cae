// Determinism tests across every layer: identical seeds must reproduce
// identical histories, traces, QoS results and membership outcomes. The
// experiment tables in EXPERIMENTS.md are only citable because of this.
#include <gtest/gtest.h>

#include "core/api.hpp"

namespace rfd {
namespace {

TEST(Determinism, OracleHistoriesReplay) {
  const auto pattern = model::cascade(5, 2, 30, 40);
  for (const auto& spec : fd::standard_detectors()) {
    const auto a = fd::sample_history(*spec.factory(pattern, 42), 150);
    const auto b = fd::sample_history(*spec.factory(pattern, 42), 150);
    EXPECT_TRUE(a.prefix_equal(b, 149)) << spec.name;
  }
}

TEST(Determinism, OracleQueriesAreOrderIndependent) {
  // H(p, t) must not depend on which queries were issued before: query in
  // forward and backward tick order and compare.
  const auto pattern = model::single_crash(4, 2, 50);
  for (const auto& spec : fd::standard_detectors()) {
    const auto oracle = spec.factory(pattern, 7);
    std::vector<fd::FdValue> forward;
    for (Tick t = 0; t < 100; ++t) forward.push_back(oracle->query(1, t));
    for (Tick t = 99; t >= 0; --t) {
      EXPECT_EQ(oracle->query(1, t), forward[static_cast<std::size_t>(t)])
          << spec.name << " at t=" << t;
    }
  }
}

sim::Trace consensus_trace(std::uint64_t seed) {
  const auto pattern = model::cascade(5, 2, 100, 150);
  const auto oracle = fd::find_detector("P").factory(pattern, seed);
  std::vector<std::unique_ptr<sim::Automaton>> automata;
  for (ProcessId p = 0; p < 5; ++p) {
    automata.push_back(std::make_unique<algo::CtStrongConsensus>(5, 100 + p));
  }
  sim::Simulator sim(pattern, *oracle, std::move(automata),
                     std::make_unique<sim::RandomAdversary>(seed));
  sim.run_for(4000);
  // Digest: every event's identity plus every message's payload bytes.
  sim::Trace trace = sim.trace();
  return trace;
}

std::string trace_digest(const sim::Trace& trace) {
  std::string out;
  for (EventId e = 0; e < trace.num_events(); ++e) {
    const auto& ev = trace.event(e);
    out += std::to_string(ev.process) + "." + std::to_string(ev.time) + "." +
           std::to_string(ev.received) + ";";
  }
  for (MessageId m = 0; m < trace.num_messages(); ++m) {
    const auto& msg = trace.message(m);
    out += std::to_string(msg.src) + ">" + std::to_string(msg.dst) + ":" +
           std::to_string(msg.payload.size()) + ";";
  }
  for (const auto& d : trace.decisions()) {
    out += "d" + std::to_string(d.process) + "=" + std::to_string(d.value) +
           "@" + std::to_string(d.time) + ";";
  }
  return out;
}

TEST(Determinism, ConsensusTracesReplayExactly) {
  EXPECT_EQ(trace_digest(consensus_trace(9)), trace_digest(consensus_trace(9)));
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(trace_digest(consensus_trace(9)), trace_digest(consensus_trace(10)));
}

// FNV-1a over everything a run makes observable. Unlike the replay tests
// above, which compare two runs of the same build, this pins the schedules
// themselves: an optimisation of the simulator, the detectors or ProcessSet
// that changes any step, detector value, message or decision changes it.
class Fnv1a {
 public:
  void i64(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8) byte(u >> shift);
  }
  void bytes(const Bytes& b) {
    i64(static_cast<std::int64_t>(b.size()));
    for (std::byte c : b) byte(static_cast<std::uint64_t>(c));
  }
  void set(const ProcessSet& s) {
    i64(s.universe_size());
    s.for_each([&](ProcessId p) { i64(p); });
    i64(-1);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t c) {
    h_ ^= c & 0xff;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::unique_ptr<sim::Automaton> automaton(core::AlgoKind algo, ProcessId n,
                                          ProcessId self,
                                          ProcessId trb_sender) {
  const Value proposal = 100 + static_cast<Value>(self);
  switch (algo) {
    case core::AlgoKind::kCtStrong:
      return std::make_unique<algo::CtStrongConsensus>(n, proposal);
    case core::AlgoKind::kCtRotating:
      return std::make_unique<algo::CtRotatingConsensus>(n, proposal);
    case core::AlgoKind::kMarabout:
      return std::make_unique<algo::MaraboutConsensus>(n, proposal);
    case core::AlgoKind::kCrChain:
      return std::make_unique<algo::CrChainConsensus>(n, proposal);
    case core::AlgoKind::kTrb:
      return std::make_unique<algo::TrbAutomaton>(n, trb_sender, 7777);
  }
  return nullptr;
}

void digest_run(Fnv1a& h, const std::string& detector,
                const model::FailurePattern& pattern, core::AlgoKind algo,
                Tick ticks, std::uint64_t seed, ProcessId trb_sender = 1,
                sim::SimConfig config = {}) {
  const ProcessId n = pattern.n();
  const auto oracle = fd::find_detector(detector).factory(pattern, seed);
  std::vector<std::unique_ptr<sim::Automaton>> automata;
  for (ProcessId p = 0; p < n; ++p) {
    automata.push_back(automaton(algo, n, p, trb_sender));
  }
  sim::Simulator sim(pattern, *oracle, std::move(automata),
                     std::make_unique<sim::RandomAdversary>(seed),
                     std::move(config));
  sim.run_for(ticks);
  const sim::Trace& trace = sim.trace();
  h.i64(trace.num_events());
  for (EventId e = 0; e < trace.num_events(); ++e) {
    const auto& ev = trace.event(e);
    h.i64(ev.process);
    h.i64(ev.time);
    h.i64(ev.received);
    h.set(ev.fd_value.suspects);
    h.bytes(ev.fd_value.extra);
  }
  h.i64(trace.num_messages());
  for (MessageId m = 0; m < trace.num_messages(); ++m) {
    const auto& msg = trace.message(m);
    h.i64(msg.src);
    h.i64(msg.dst);
    h.bytes(msg.payload);
    h.set(msg.alive_tags);
  }
  auto refs = [&](const auto& list) {
    h.i64(static_cast<std::int64_t>(list.size()));
    for (const auto& d : list) {
      h.i64(d.event);
      h.i64(d.process);
      h.i64(d.time);
      h.i64(d.instance);
      h.i64(d.value);
    }
  };
  refs(trace.decisions());
  refs(trace.deliveries());
}

TEST(Determinism, PaperModelSchedulesArePinned) {
  const auto pattern = model::cascade(5, 2, 100, 150);
  Fnv1a h;
  using core::AlgoKind;
  for (const char* detector : {"P", "S(cheat)", "Scribe", "<>P"}) {
    digest_run(h, detector, pattern, AlgoKind::kCtStrong, 4000, 9);
  }
  digest_run(h, "P<", pattern, AlgoKind::kTrb, 4000, 9);
  // n = 70 needs two words per set, so the multi-word path is pinned too.
  digest_run(h, "P", model::cascade(70, 3, 100, 150), AlgoKind::kCtStrong,
             3000, 9);
  EXPECT_EQ(h.value(), 0x2d6c5f49ca2798a4ull);
}

// Every (detector, algorithm) row of the E1a table, a run that pauses a
// process and blocks a channel, and the raw history of every registry
// detector. The pattern crashes p0 before its first step and p3 later,
// so the alive set changes both at tick 0 and mid-run; n = 65 puts
// every set in two words.
TEST(Determinism, EveryE1aRowAndOracleHistoryIsPinned) {
  using core::AlgoKind;
  model::FailurePattern pattern(5);
  pattern.crash_at(0, 0);
  pattern.crash_at(3, 150);
  Fnv1a h;
  // E1a's rows, sender 2 for TRB as in the table. p_lt.chain_uc judges
  // the same run as p_lt.chain_crc against a stronger spec.
  const struct {
    const char* detector;
    AlgoKind algo;
  } kRows[] = {
      {"P", AlgoKind::kCtStrong},         {"P", AlgoKind::kTrb},
      {"Scribe", AlgoKind::kCtStrong},    {"S(cheat)", AlgoKind::kCtStrong},
      {"S(cheat)", AlgoKind::kTrb},       {"Marabout", AlgoKind::kMarabout},
      {"Marabout", AlgoKind::kCtStrong},  {"<>S", AlgoKind::kCtRotating},
      {"Omega", AlgoKind::kCtRotating},   {"<>P", AlgoKind::kCtRotating},
      {"<>P", AlgoKind::kCtStrong},       {"P<", AlgoKind::kCrChain},
      {"P<", AlgoKind::kTrb},
  };
  for (const auto& row : kRows) {
    digest_run(h, row.detector, pattern, row.algo, 3000, 11,
               /*trb_sender=*/2);
  }
  sim::SimConfig crafted;
  crafted.pauses = {{2, 40, 400}, {3, 100, 300}};
  crafted.blocks = {{1, -1, 250}, {-1, 4, 120}};
  digest_run(h, "P", pattern, AlgoKind::kCtStrong, 3000, 11, 2, crafted);

  model::FailurePattern wide(65);
  wide.crash_at(0, 0);
  wide.crash_at(64, 30);
  wide.crash_at(40, 150);
  for (const model::FailurePattern* f : {&pattern, &wide}) {
    for (const auto& spec : fd::standard_detectors()) {
      const auto history = fd::sample_history(*spec.factory(*f, 13), 200);
      for (ProcessId p = 0; p < history.n(); ++p) {
        for (Tick t = 0; t < history.horizon(); ++t) {
          h.set(history.at(p, t).suspects);
          h.bytes(history.at(p, t).extra);
        }
      }
    }
  }
  EXPECT_EQ(h.value(), 0xa2771c634efa3ba8ull);
}

TEST(Determinism, QosResultsReplay) {
  cluster::QosConfig config;
  config.crash_at_ms = 20'000.0;
  config.duration_ms = 30'000.0;
  const auto a = cluster::run_qos_experiment(config, 5);
  const auto b = cluster::run_qos_experiment(config, 5);
  EXPECT_EQ(a.detection_time_ms, b.detection_time_ms);
  EXPECT_EQ(a.false_transitions, b.false_transitions);
  EXPECT_EQ(a.query_accuracy, b.query_accuracy);
  EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent);
}

TEST(Determinism, MembershipReplay) {
  cluster::MembershipConfig config;
  config.n = 5;
  config.crash_at_ms = std::vector<double>(5, -1.0);
  config.crash_at_ms[2] = 8'000.0;
  config.duration_ms = 20'000.0;
  const auto a = cluster::run_membership_experiment(config, 3);
  const auto b = cluster::run_membership_experiment(config, 3);
  EXPECT_EQ(a.exclusions, b.exclusions);
  EXPECT_EQ(a.false_exclusions, b.false_exclusions);
  EXPECT_EQ(a.final_view, b.final_view);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(Determinism, SolvabilityVerdictsReplay) {
  const auto patterns = core::standard_patterns(4, 3, 1, 800, 2);
  core::EvalConfig config;
  config.horizon = 4000;
  config.schedule_seeds = 1;
  const auto a = core::evaluate_algorithm(
      fd::find_detector("P"), core::AlgoKind::kCtStrong,
      core::SpecKind::kUniformConsensus, patterns, config);
  const auto b = core::evaluate_algorithm(
      fd::find_detector("P"), core::AlgoKind::kCtStrong,
      core::SpecKind::kUniformConsensus, patterns, config);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.runs, b.runs);
}

TEST(Determinism, PatternSweepsReplay) {
  const auto a = core::standard_patterns(6, 5, 77, 1000, 8);
  const auto b = core::standard_patterns(6, 5, 77, 1000, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
  }
}

}  // namespace
}  // namespace rfd
