// Scenario DSL: parse/serialize round-trips, compound expansion, and
// the error paths - every diagnostic must carry the exact line/column
// of the offending token, including cross-statement discipline failures
// (unmatched link_up/storm_off/slow_end) attributed through
// Scenario::check()'s event index. Also the timeline-ordering
// regression: builders may append events in any time order, the engine
// consumes the stable-sorted timeline, and a genuinely malformed
// timeline is rejected before the run starts instead of silently
// corrupting network state. And the interpreter's effectiveness rules:
// which faults are no-ops that must leave no trace record. Last, a
// seed-driven fuzzer over mutated library files: the parser must reject
// with a positioned diagnostic or round-trip, never throw or abort.
#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/fault_state.hpp"
#include "cluster/scenario_dsl.hpp"
#include "common/rng.hpp"
#include "scenario_test_util.hpp"

namespace rfd::cluster {
namespace {

ScenarioDoc parse_ok(const std::string& text, DslContext ctx = {}) {
  ScenarioDoc doc;
  DslError err;
  EXPECT_TRUE(parse_scenario(text, ctx, doc, err)) << err.to_string();
  return doc;
}

DslError parse_fail(const std::string& text, DslContext ctx = {}) {
  ScenarioDoc doc;
  DslError err;
  EXPECT_FALSE(parse_scenario(text, ctx, doc, err)) << "expected failure";
  return err;
}

TEST(ScenarioDsl, ParsesHeadersAndEveryPrimitive) {
  const ScenarioDoc doc = parse_ok(
      "# comment line\n"
      "name \"every primitive\"\n"
      "config n=16 max_nodes=20 duration=30000 cluster=4\n"
      "\n"
      "join      at=1000 node=16\n"
      "leave     at=2000 node=3\n"
      "crash     at=3000 node=0-1,7\n"
      "recover   at=4000 node=0-1,7\n"
      "partition at=5000 groups=0-7|8-15\n"
      "heal      at=6000\n"
      "link_down at=7000 from=0-3 to=4-7\n"
      "link_up   at=8000 from=0-3 to=4-7\n"
      "slow      at=9000 node=5 factor=4.5\n"
      "slow_end  at=9500 node=5\n"
      "storm_on  at=10000 extra=500 prob=0.5\n"
      "storm_off at=11000\n");
  EXPECT_EQ(doc.name, "every primitive");
  EXPECT_EQ(doc.n, 16);
  EXPECT_EQ(doc.max_nodes, 20);
  EXPECT_EQ(doc.cluster_size, 4);
  EXPECT_DOUBLE_EQ(doc.duration_ms, 30'000.0);
  EXPECT_EQ(doc.max_node_ref, 16);
  // crash/recover over the 3-id set expand to 3 events each.
  EXPECT_EQ(doc.scenario.events.size(), 2u + 3u + 3u + 2u + 2u + 2u + 2u);
  EXPECT_TRUE(doc.scenario.validate().empty());
  const FaultEvent& slow = doc.scenario.events[12];
  EXPECT_EQ(slow.kind, FaultKind::kSlowStart);
  EXPECT_EQ(slow.node, 5);
  EXPECT_DOUBLE_EQ(slow.factor, 4.5);
}

TEST(ScenarioDsl, CompoundsExpandToPrimitives) {
  // flap: 3 full periods, each up-then-down = 4 directed events per
  // down window, plus the final link_up pair at the window end.
  const ScenarioDoc flap = parse_ok(
      "flap from=0 to=3000 period=1000 duty=0.5 a=0 b=1\n");
  int downs = 0, ups = 0;
  for (const FaultEvent& e : flap.scenario.events) {
    downs += e.kind == FaultKind::kLinkDown;
    ups += e.kind == FaultKind::kLinkUp;
  }
  EXPECT_EQ(downs, ups) << "every block must be lifted";
  EXPECT_EQ(downs, 6);  // 3 windows x 2 directions
  EXPECT_TRUE(flap.scenario.validate().empty());

  const ScenarioDoc ramp = parse_ok(
      "overload from=0 to=5000 steps=4 extra=2000 prob=0.8\n");
  ASSERT_EQ(ramp.scenario.events.size(), 5u);  // 4 escalations + off
  EXPECT_EQ(ramp.scenario.events[0].kind, FaultKind::kStormStart);
  EXPECT_DOUBLE_EQ(ramp.scenario.events[0].extra_delay_ms, 500.0);
  EXPECT_DOUBLE_EQ(ramp.scenario.events[3].extra_delay_ms, 2000.0);
  EXPECT_EQ(ramp.scenario.events[4].kind, FaultKind::kStormEnd);

  // rack with explicit size; all crashes land on the same instant.
  const ScenarioDoc rack = parse_ok("rack at=4000 group=1 size=4\n");
  ASSERT_EQ(rack.scenario.events.size(), 4u);
  for (const FaultEvent& e : rack.scenario.events) {
    EXPECT_EQ(e.kind, FaultKind::kCrash);
    EXPECT_DOUBLE_EQ(e.at_ms, 4'000.0);
  }
  EXPECT_EQ(rack.scenario.events[0].node, 4);
  EXPECT_EQ(rack.scenario.events[3].node, 7);

  // rack without size falls back to the config cluster, then context.
  const ScenarioDoc rack2 =
      parse_ok("config n=9 max_nodes=9 cluster=3\nrack at=1000 group=2\n");
  ASSERT_EQ(rack2.scenario.events.size(), 3u);
  EXPECT_EQ(rack2.scenario.events[0].node, 6);

  const ScenarioDoc churn =
      parse_ok("churn from=0 to=4000 join=8-9 leave=0-1\n");
  ASSERT_EQ(churn.scenario.events.size(), 4u);
  EXPECT_EQ(churn.scenario.events[0].kind, FaultKind::kJoin);
  EXPECT_EQ(churn.scenario.events[2].kind, FaultKind::kLeave);
  // Leaves sit on the half-step offset so the streams interleave.
  EXPECT_DOUBLE_EQ(churn.scenario.events[2].at_ms, 1'000.0);
}

TEST(ScenarioDsl, LiePrimitiveParsesAndRoundTrips) {
  const ScenarioDoc doc = parse_ok(
      "lie at=2000 node=3,5 delta=-2\n"
      "lie_end at=6000 node=3,5\n");
  ASSERT_EQ(doc.scenario.events.size(), 4u);
  EXPECT_EQ(doc.scenario.events[0].kind, FaultKind::kLieStart);
  EXPECT_EQ(doc.scenario.events[0].node, 3);
  EXPECT_DOUBLE_EQ(doc.scenario.events[0].factor, -2.0);
  EXPECT_EQ(doc.scenario.events[3].kind, FaultKind::kLieEnd);
  EXPECT_EQ(doc.scenario.events[3].node, 5);
  EXPECT_TRUE(doc.scenario.validate().empty());
  const std::string text = serialize_scenario(doc);
  const ScenarioDoc again = parse_ok(text);
  EXPECT_EQ(doc.scenario.events, again.scenario.events);
  EXPECT_EQ(serialize_scenario(again), text) << "not a fixed point";
}

TEST(ScenarioDsl, LieDisciplineRequiresAnOpenLie) {
  const DslError err = parse_fail(
      "lie at=2000 node=3 delta=4\n"
      "lie_end at=6000 node=5\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("not lying"), std::string::npos)
      << err.to_string();
  EXPECT_TRUE(parse_fail("lie at=2000 node=3 delta=nope\n").line == 1);
}

TEST(ScenarioDsl, BudgetHeaderParsesAndRoundTrips) {
  const ScenarioDoc doc = parse_ok(
      "budget max_false_per_node_min=0.5 max_detect_p99=2500\n"
      "crash at=3000 node=7\n");
  EXPECT_TRUE(doc.has_budget());
  EXPECT_DOUBLE_EQ(doc.budget_max_false_per_node_min, 0.5);
  EXPECT_DOUBLE_EQ(doc.budget_max_detect_p99_ms, 2'500.0);
  const ScenarioDoc again = parse_ok(serialize_scenario(doc));
  EXPECT_DOUBLE_EQ(again.budget_max_false_per_node_min, 0.5);
  EXPECT_DOUBLE_EQ(again.budget_max_detect_p99_ms, 2'500.0);

  const ScenarioDoc partial = parse_ok("budget max_detect_p99=1000\n");
  EXPECT_TRUE(partial.has_budget());
  EXPECT_LT(partial.budget_max_false_per_node_min, 0.0);

  const ScenarioDoc none = parse_ok("crash at=1000 node=0\n");
  EXPECT_FALSE(none.has_budget());
}

TEST(ScenarioDsl, BudgetHeaderRejectsMisuse) {
  // Empty budget, budget after a fault, and negative bounds all fail
  // with the line of the offending statement.
  EXPECT_EQ(parse_fail("budget\n").line, 1);
  EXPECT_EQ(parse_fail("crash at=1000 node=0\nbudget max_detect_p99=1\n")
                .line,
            2);
  EXPECT_EQ(parse_fail("budget max_false_per_node_min=-1\n").line, 1);
  EXPECT_EQ(parse_fail("budget max_detect_p99=0\n").line, 1);
  EXPECT_EQ(parse_fail("budget nope=1\n").line, 1);
}

TEST(ScenarioDsl, RoundTripIsAFixedPoint) {
  const std::string source =
      "name \"round trip\"\n"
      "config n=16 max_nodes=20 duration=30000\n"
      "crash at=3000 node=7,2,2\n"
      "partition at=5000 groups=0-7|8-15\n"
      "heal at=6000\n"
      "flap from=8000 to=11000 period=1000 duty=0.25 a=0-2 b=8-10\n"
      "slow at=12000 node=5 factor=3.25\n"
      "slow_end at=13000 node=5\n"
      "overload from=14000 to=20000 steps=3 extra=1500 prob=0.9\n"
      "churn from=21000 to=25000 join=16-17 leave=4\n";
  const ScenarioDoc first = parse_ok(source);
  const std::string text = serialize_scenario(first);
  const ScenarioDoc second = parse_ok(text);
  EXPECT_EQ(first.name, second.name);
  EXPECT_EQ(first.n, second.n);
  EXPECT_EQ(first.max_nodes, second.max_nodes);
  EXPECT_DOUBLE_EQ(first.duration_ms, second.duration_ms);
  EXPECT_EQ(first.scenario.events, second.scenario.events);
  EXPECT_EQ(serialize_scenario(second), text) << "not a fixed point";
}

TEST(ScenarioDsl, EveryLibraryScenarioRoundTrips) {
  for (const char* file :
       {"asymmetric_partition.scn", "byzantine_counters.scn",
        "cascading_overload.scn", "churn_storm.scn",
        "crash_recovery_wave.scn", "flapping_links.scn", "gray_failure.scn",
        "partition_cascade.scn", "rack_failure.scn", "slow_nodes.scn"}) {
    const ScenarioDoc doc = testutil::load_doc(file);
    EXPECT_FALSE(doc.scenario.events.empty()) << file;
    EXPECT_TRUE(doc.scenario.validate().empty()) << file;
    const ScenarioDoc again = parse_ok(serialize_scenario(doc));
    EXPECT_EQ(doc.scenario.events, again.scenario.events) << file;
  }
}

TEST(ScenarioDsl, DiagnosticsCarryExactLineAndColumn) {
  struct Case {
    const char* text;
    int line;
    int col;
    const char* needle;
  };
  const Case cases[] = {
      {"crash at=1000 node=0\nboom at=2000\n", 2, 1, "unknown statement"},
      {"crash at=1000 mode=3\n", 1, 15, "unknown key 'mode'"},
      {"crash node=1\n", 1, 1, "needs at="},
      {"crash at=abc node=1\n", 1, 10, "not a number"},
      {"crash at=-5 node=1\n", 1, 10, "at must be >= 0"},
      {"crash at=1000 node=1x\n", 1, 20, "not a node id"},
      {"crash at=1000 node=9-4\n", 1, 20, "descending range"},
      {"partition at=1000 groups=0-3\n", 1, 26, ">= 2 |-separated"},
      {"partition at=1000 groups=0-3|3-6\n", 1, 26, "groups overlap"},
      {"slow at=1000 node=1 factor=0\n", 1, 28, "factor must be > 0"},
      {"storm_on at=1000 extra=500 prob=1.5\n", 1, 33, "in [0, 1]"},
      {"flap from=0 to=5000 period=0 duty=0.5 a=0 b=1\n", 1, 28,
       "period must be > 0"},
      {"delay_storm from=2000 to=1000 extra=5\n", 1, 26,
       "greater than from"},
      {"crash at=1000 node=0\nconfig n=8\n", 2, 1, "must precede"},
      {"name unquoted\n", 1, 6, "expected key=value"},
      {"name \"open\n", 1, 6, "unterminated string"},
      {"churn from=0 to=1000\n", 1, 1, "join= and/or leave="},
      {"rack at=1000 group=1\n", 1, 1, "needs size="},
      // Expansions are bounded before they run: ids against the id limit
      // at their token, event counts against the expansion cap.
      {"crash at=1 node=2147483600-2147483647\n", 1, 17, "out of range"},
      {"config n=8 max_nodes=16\ncrash at=1 node=0-300000000\n", 2, 19,
       "out of range"},
      {"flap from=0 to=1000000000 period=0.001 duty=0.5 a=0 b=1\n", 1, 34,
       "expands the scenario past"},
      {"overload from=0 to=10 steps=2000000000 extra=5 prob=0.5\n", 1, 29,
       "expands the scenario past"},
      {"rack at=1 group=0 size=2000000000\n", 1, 24, "rack size"},
      // The cap is per scenario: each line fits, the fifth passes it.
      {"crash at=1 node=0-262143\ncrash at=1 node=0-262143\n"
       "crash at=1 node=0-262143\ncrash at=1 node=0-262143\n"
       "crash at=1 node=0-262143\n",
       5, 17, "expands the scenario past"},
      // A period too small to advance the clock from 1e11 ms.
      {"flap from=100000000000 to=100000000001 period=0.000001 a=0 b=1\n",
       1, 47, "expands the scenario past"},
  };
  for (const Case& c : cases) {
    const DslError err = parse_fail(c.text);
    EXPECT_EQ(err.line, c.line) << c.text << err.to_string();
    EXPECT_EQ(err.col, c.col) << c.text << err.to_string();
    EXPECT_NE(err.message.find(c.needle), std::string::npos)
        << c.text << err.to_string();
  }
}

TEST(ScenarioDsl, NodeBoundsCheckedAgainstConfigOrContext) {
  DslError err = parse_fail("config n=8 max_nodes=8\ncrash at=1000 node=8\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("out of range"), std::string::npos);

  DslContext ctx;
  ctx.max_nodes = 4;
  err = parse_fail("link_down at=1000 from=0 to=5\n", ctx);
  EXPECT_NE(err.message.find("out of range"), std::string::npos);

  // Unbounded context: references are recorded, not rejected.
  const ScenarioDoc doc = parse_ok("crash at=1000 node=100\n");
  EXPECT_EQ(doc.max_node_ref, 100);
}

TEST(ScenarioDsl, CrossStatementDisciplineAttributedToOffendingLine) {
  // link_up with no matching installed block: check() flags the event,
  // the parser maps it back to line 2.
  DslError err = parse_fail(
      "link_down at=1000 from=0-3 to=4-7\n"
      "link_up   at=2000 from=0-2 to=4-7\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("link_up"), std::string::npos);

  err = parse_fail("storm_off at=5000\n");
  EXPECT_EQ(err.line, 1);

  err = parse_fail("slow at=1000 node=3 factor=2\nslow_end at=2000 node=4\n");
  EXPECT_EQ(err.line, 2);
}

TEST(ScenarioDsl, MissingFileReportsPathWithoutLine) {
  ScenarioDoc doc;
  DslError err;
  EXPECT_FALSE(load_scenario_file("/nonexistent/nope.scn", DslContext{},
                                  doc, err));
  EXPECT_EQ(err.line, 0);
  EXPECT_NE(err.message.find("nope.scn"), std::string::npos);
}

// ---------------------------------------------------------------------
// The timeline-ordering regression (builders used to be silently
// order-sensitive): appending events out of time order must produce the
// same run as the sorted script, and malformed timelines must be
// rejected by the engine up front.

ClusterConfig tiny_config() {
  ClusterConfig config;
  config.n = 8;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = 8;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 400.0;
  config.duration_ms = 6'000.0;
  return config;
}

TEST(ScenarioOrdering, OutOfOrderAppendsRunIdenticallyToSortedScript) {
  ClusterConfig in_order = tiny_config();
  in_order.scenario.crash(1'000.0, 1)
      .delay_storm(2'000.0, 3'000.0, 300.0, 0.5)
      .crash(4'000.0, 2);

  // Same events, appended backwards.
  ClusterConfig reversed = tiny_config();
  reversed.scenario.crash(4'000.0, 2)
      .storm_off(3'000.0)
      .storm_on(2'000.0, 300.0, 0.5)
      .crash(1'000.0, 1);

  EXPECT_TRUE(reversed.scenario.validate().empty());
  EXPECT_EQ(in_order.scenario.sorted(), reversed.scenario.sorted());
  const ClusterReport a = run_cluster(in_order, 7);
  const ClusterReport b = run_cluster(reversed, 7);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.detection_latency_ms.count(), b.detection_latency_ms.count());
  EXPECT_DOUBLE_EQ(a.detection_latency_ms.mean(),
                   b.detection_latency_ms.mean());
}

TEST(ScenarioOrderingDeathTest, EngineRejectsMalformedTimelineUpFront) {
  // storm_off before any storm_on is malformed no matter how the events
  // were appended; the engine must refuse to run it.
  ClusterConfig config = tiny_config();
  config.scenario.storm_off(2'000.0);
  EXPECT_NE(config.scenario.validate().find("storm"), std::string::npos);
  EXPECT_DEATH(run_cluster(config, 7), "storm");

  ClusterConfig overlap = tiny_config();
  overlap.scenario.partition(1'000.0, {{0, 1, 2}, {2, 3, 4}});
  EXPECT_DEATH(run_cluster(overlap, 7), "partition");
}

TEST(ScenarioOrdering, CheckReportsOffendingEventIndex) {
  Scenario s;
  s.link_down(1'000.0, {0}, {1});
  s.link_up(2'000.0, {0}, {2});  // no matching block
  const std::optional<ScenarioIssue> issue = s.check();
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->event_index, 1u);
}

TEST(FaultInterpreter, IneffectiveFaultsAreNoOps) {
  FaultState truth(4, 2);  // 0, 1 active; 2, 3 never active
  Scenario s;
  s.recover(1.0, 2)   // never active: nothing to recover
      .crash(2.0, 3)  // never active: nothing to crash
      .join(3.0, 1)   // a known id cannot join again
      .crash(4.0, 0)
      .crash(5.0, 0)  // already down
      .leave(6.0, 0)
      .recover(7.0, 1);  // live: nothing to recover
  std::vector<FaultEffect> effects;
  for (const FaultEvent& e : s.sorted()) {
    effects.push_back(truth.apply(e, e.at_ms));
  }
  EXPECT_EQ(effects,
            (std::vector<FaultEffect>{
                FaultEffect::kIgnored, FaultEffect::kIgnored,
                FaultEffect::kIgnored, FaultEffect::kDown,
                FaultEffect::kIgnored, FaultEffect::kIgnored,
                FaultEffect::kIgnored}));
  // Only the first crash moved the truth, and it keeps its time.
  EXPECT_TRUE(truth.truly_down(0));
  EXPECT_EQ(truth.down_since(0), 4.0);
  EXPECT_FALSE(truth.ever_active(2));
  EXPECT_FALSE(truth.truly_down(3));
  EXPECT_EQ(truth.active_contacts(), (std::vector<NodeId>{1}));

  Scenario effective;
  effective.recover(8.0, 0).join(9.0, 3).heal(10.0);
  std::vector<FaultEffect> more;
  for (const FaultEvent& e : effective.sorted()) {
    more.push_back(truth.apply(e, e.at_ms));
  }
  EXPECT_EQ(more, (std::vector<FaultEffect>{FaultEffect::kUp,
                                            FaultEffect::kJoined,
                                            FaultEffect::kRelief}));
  EXPECT_EQ(truth.down_since(0), -1.0);
  EXPECT_EQ(truth.active_contacts(), (std::vector<NodeId>{0, 1, 3}));
}

// ---------------------------------------------------------------------
// Seed-driven fuzzing over mutated library files. Every mutant must
// either fail with a positioned diagnostic or parse into a timeline whose
// serialization is a text fixed point; text, not events, because
// serialization canonicalizes node sets.

/// [begin, end) of every run of digits and dots that starts with a digit.
std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  auto numeric = [&](std::size_t i) {
    return (text[i] >= '0' && text[i] <= '9') || text[i] == '.';
  };
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] < '0' || text[i] > '9') {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && numeric(end)) ++end;
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

std::string mutate(std::string text, Rng& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(static_cast<std::int64_t>(n)));
  };
  switch (rng.below(4)) {
    case 0: {  // flip one to four bytes
      const std::int64_t flips = 1 + rng.below(4);
      for (std::int64_t i = 0; i < flips && !text.empty(); ++i) {
        text[pick(text.size())] ^= static_cast<char>(1 + rng.below(255));
      }
      break;
    }
    case 1:  // truncate at a random offset
      text.resize(pick(text.size() + 1));
      break;
    case 2: {  // replace a numeric token with an extreme value
      static const char* const kExtremes[] = {
          "0", "-1", "2147483647", "9223372036854775807", "1e308", "1e-300"};
      const auto spans = numeric_tokens(text);
      if (spans.empty()) break;
      const auto [begin, end] = spans[pick(spans.size())];
      text.replace(begin, end - begin, kExtremes[pick(6)]);
      break;
    }
    default: {  // duplicate a line in place
      std::vector<std::size_t> starts = {0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t begin = starts[pick(starts.size())];
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      text.insert(end, text.substr(begin, end - begin));
      break;
    }
  }
  return text;
}

TEST(ScenarioDslFuzz, MutatedLibraryFilesFailCleanlyOrRoundTrip) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(testutil::scenario_dir())) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  constexpr int kMutants = 1000;
  const Rng base(0x5ca1ab1e);
  int parsed = 0;
  int rejected = 0;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string source = testutil::read_file(files[f].string());
    Rng rng = base.split(f);
    for (int i = 0; i < kMutants; ++i) {
      const std::string text = mutate(source, rng);
      const std::string where =
          files[f].filename().string() + " mutant " + std::to_string(i);
      ScenarioDoc doc;
      DslError err;
      if (!parse_scenario(text, DslContext{}, doc, err)) {
        ++rejected;
        EXPECT_GE(err.line, 1) << where << ": " << err.to_string();
        EXPECT_GE(err.col, 1) << where << ": " << err.to_string();
        continue;
      }
      ++parsed;
      const std::string once = serialize_scenario(doc);
      ScenarioDoc again;
      ASSERT_TRUE(parse_scenario(once, DslContext{}, again, err))
          << where << ": " << err.to_string() << "\n" << once;
      EXPECT_EQ(serialize_scenario(again), once) << where;
    }
  }
  // Both outcomes occur, so the mutations are neither all fatal nor all
  // harmless.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace rfd::cluster
