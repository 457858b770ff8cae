// Deterministic scenario fuzzer: 64 seed-derived fault timelines, each
// generated as scenario DSL text (the generator only emits well-formed
// phases, so parse failures are themselves bugs), run against a live
// cluster, and checked for engine invariants:
//
//   - counters never go negative and the trace sink never drops;
//   - the run's QoS re-derived offline from the trace (obs::replay_qos)
//     matches the live report bit-for-bit - detection latency count,
//     mean and percentiles, false suspicions, raises, clears and every
//     mistake length.
//
// No libFuzzer, no corpus: the 64 inputs are a pure function of their
// seed, so a failure reproduces anywhere from the seed number alone.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/scenario_dsl.hpp"
#include "common/rng.hpp"
#include "obs/replay.hpp"
#include "scenario_test_util.hpp"

namespace rfd::cluster {
namespace {

/// Generates one well-formed scenario script: a random number of
/// self-contained fault phases on non-overlapping time windows, over a
/// random cluster size. Every open state (partition, block, slowdown,
/// storm) is closed by the phase that opened it, so the text always
/// passes Scenario::check() - what is being fuzzed is the engine's
/// behavior under fault composition, not the parser's rejection paths
/// (those are scenario_dsl_test's job).
std::string generate_scenario(std::uint64_t seed) {
  Rng rng(mix_seed(0xf022, seed));
  const int n = static_cast<int>(rng.range(16, 32));
  const int spares = static_cast<int>(rng.range(0, 3));
  std::string text = "name \"fuzz " + std::to_string(seed) + "\"\n";
  text += "config n=" + std::to_string(n) +
          " max_nodes=" + std::to_string(n + spares) +
          " duration=10000\n";

  std::vector<bool> gone(static_cast<std::size_t>(n), false);
  auto pick_alive = [&]() -> int {
    for (int tries = 0; tries < 64; ++tries) {
      const int node = static_cast<int>(rng.below(n));
      if (!gone[static_cast<std::size_t>(node)]) return node;
    }
    return -1;
  };

  int joined = 0;
  double t = 800.0 + static_cast<double>(rng.range(0, 400));
  const int phases = static_cast<int>(rng.range(2, 5));
  for (int phase = 0; phase < phases && t < 8'000.0; ++phase) {
    const double span = static_cast<double>(rng.range(800, 2'000));
    const auto from = std::to_string(static_cast<std::int64_t>(t));
    const auto to = std::to_string(static_cast<std::int64_t>(t + span));
    const auto mid =
        std::to_string(static_cast<std::int64_t>(t + span / 2.0));
    switch (rng.below(8)) {
      case 0: {  // crash, sometimes with recovery
        const int node = pick_alive();
        if (node < 0) break;
        text += "crash at=" + from + " node=" + std::to_string(node) + "\n";
        if (rng.chance(0.5)) {
          text += "recover at=" + to + " node=" + std::to_string(node) + "\n";
        } else {
          gone[static_cast<std::size_t>(node)] = true;
        }
        break;
      }
      case 1: {  // split in half, heal
        const int cut = static_cast<int>(rng.range(1, n - 1));
        text += "partition at=" + from + " groups=0-" +
                std::to_string(cut - 1) + "|" + std::to_string(cut) + "-" +
                std::to_string(n - 1) + "\n";
        text += "heal at=" + to + "\n";
        break;
      }
      case 2: {  // one-way cut, lifted
        const int a = static_cast<int>(rng.below(n / 2));
        const int b = static_cast<int>(rng.range(n / 2, n - 1));
        const std::string sets =
            " from=" + std::to_string(a) + " to=" + std::to_string(b);
        text += "link_down at=" + from + sets + "\n";
        text += "link_up at=" + to + sets + "\n";
        break;
      }
      case 3: {  // slow-but-alive episode
        const int node = pick_alive();
        if (node < 0) break;
        text += "slow at=" + from + " node=" + std::to_string(node) +
                " factor=" + std::to_string(rng.range(2, 8)) + "\n";
        text += "slow_end at=" + to + " node=" + std::to_string(node) + "\n";
        break;
      }
      case 4:
        text += "delay_storm from=" + from + " to=" + to +
                " extra=" + std::to_string(rng.range(100, 800)) +
                " prob=0.5\n";
        break;
      case 5: {
        const int a = static_cast<int>(rng.below(n / 2));
        const int b = static_cast<int>(rng.range(n / 2, n - 1));
        text += "flap from=" + from + " to=" + to +
                " period=" + std::to_string(rng.range(300, 700)) +
                " duty=0.5 a=" + std::to_string(a) + " b=" +
                std::to_string(b) + "\n";
        break;
      }
      case 6:
        text += "overload from=" + from + " to=" + to +
                " steps=" + std::to_string(rng.range(2, 4)) +
                " extra=" + std::to_string(rng.range(500, 2'000)) +
                " prob=0.7\n";
        break;
      case 7: {  // churn: fresh id joins, an alive node leaves
        std::string stmt = "churn from=" + from + " to=" + to;
        bool any = false;
        if (joined < spares) {
          stmt += " join=" + std::to_string(n + joined);
          ++joined;
          any = true;
        }
        const int node = pick_alive();
        if (node >= 0 && rng.chance(0.7)) {
          stmt += " leave=" + std::to_string(node);
          gone[static_cast<std::size_t>(node)] = true;
          any = true;
        }
        if (any) text += stmt + "\n";
        break;
      }
    }
    (void)mid;
    t += span + static_cast<double>(rng.range(100, 500));
  }
  return text;
}

TEST(ScenarioFuzz, GeneratedTimelinesKeepEngineInvariants) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const std::string text = generate_scenario(seed);
    ScenarioDoc doc;
    DslError err;
    ASSERT_TRUE(parse_scenario(text, DslContext{}, doc, err))
        << "seed " << seed << ": " << err.to_string() << "\n" << text;
    ASSERT_TRUE(doc.scenario.validate().empty()) << "seed " << seed;

    ClusterConfig config = testutil::scenario_cluster_config(doc);
    const std::string path = ::testing::TempDir() + "/rfd_fuzz_" +
                             std::to_string(seed) + ".jsonl";
    config.obs.trace_path = path;
    const ClusterReport live = run_cluster(config, mix_seed(seed, 0xdef));

    // Counter invariants: nothing the engine tallies may go negative,
    // and the bounded trace queue must never have dropped a record
    // (a lossy trace would make the replay check below meaningless).
    EXPECT_GT(live.messages_sent, 0) << "seed " << seed;
    EXPECT_GE(live.messages_dropped, 0) << "seed " << seed;
    EXPECT_GE(live.partition_dropped, 0) << "seed " << seed;
    EXPECT_GE(live.false_suspicions, 0) << "seed " << seed;
    EXPECT_GE(live.suspicion_raises, 0) << "seed " << seed;
    EXPECT_GE(live.suspicion_clears, 0) << "seed " << seed;
    EXPECT_GE(live.suspicion_raises, live.suspicion_clears)
        << "seed " << seed << ": more clears than raises";
    EXPECT_GE(live.missed_detections, 0) << "seed " << seed;
    EXPECT_GE(live.disruptions, live.unconverged_disruptions)
        << "seed " << seed;
    ASSERT_EQ(live.trace_dropped, 0) << "seed " << seed;

    // Report totals must match an offline replay of the trace.
    const obs::ReplayQos replayed = obs::replay_qos(path);
    std::remove(path.c_str());
    ASSERT_TRUE(replayed.ok) << "seed " << seed << ": " << replayed.error;
    EXPECT_EQ(replayed.lost_records, 0) << "seed " << seed;
    EXPECT_EQ(replayed.detection_latency_ms.count(),
              live.detection_latency_ms.count())
        << "seed " << seed;
    if (live.detection_latency_ms.count() > 0) {  // mean of none is NaN
      EXPECT_EQ(replayed.detection_latency_ms.mean(),
                live.detection_latency_ms.mean())
          << "seed " << seed;
      EXPECT_EQ(replayed.detection_latency_ms.percentile(0.5),
                live.detection_latency_ms.percentile(0.5))
          << "seed " << seed;
      EXPECT_EQ(replayed.detection_latency_ms.percentile(0.99),
                live.detection_latency_ms.percentile(0.99))
          << "seed " << seed;
    }
    EXPECT_EQ(replayed.false_suspicions, live.false_suspicions)
        << "seed " << seed;
    EXPECT_EQ(replayed.suspicion_raises, live.suspicion_raises)
        << "seed " << seed;
    EXPECT_EQ(replayed.suspicion_clears, live.suspicion_clears)
        << "seed " << seed;
    EXPECT_EQ(replayed.mistakes, live.mistakes) << "seed " << seed;
    EXPECT_EQ(replayed.mistake_ms, live.mistake_ms) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rfd::cluster
