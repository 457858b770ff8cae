// Byzantine-ish wrong heartbeats (kLieStart/kLieEnd): a lying-but-alive
// node may be *accused* while its advertised counter regresses or its
// peers' high-water marks overshoot, but it must never end the run
// suspected - the honest counter keeps advancing underneath and has to
// refute the suspicion once the lie stops. Also pins the shard
// determinism of the lie path (advertised-counter state is owner-shard
// only), the self-healing timing argument for both lie polarities, and
// the clamp that keeps any lie a plausible wire counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "cluster/engine.hpp"
#include "cluster/fault_state.hpp"
#include "cluster/scenario_dsl.hpp"
#include "scenario_test_util.hpp"

namespace rfd::cluster {
namespace {

using testutil::load_doc;
using testutil::report_fingerprint;
using testutil::scenario_cluster_config;

TEST(Byzantine, LyingButAliveNodesAreAccusedButNeverConvicted) {
  const ScenarioDoc doc = load_doc("byzantine_counters.scn");
  ASSERT_FALSE(doc.scenario.events.empty());
  // A tuned fabric (the E11 gossip scaling cell's shape): the reference
  // golden config deliberately runs Chen too tight so its traces are
  // rich in flaps, which would drown the conviction assertion here.
  ClusterConfig config;
  config.n = doc.n;
  config.max_nodes = doc.max_nodes;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = 32;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 1'500.0;
  config.bootstrap_grace_ms = 1'500.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = doc.duration_ms;
  config.scenario = doc.scenario;
  const ClusterReport r = run_cluster(config, 20020623u);
  // The lies must be noticed (a regressing advertisement looks exactly
  // like a stall, so suspicions are raised)...
  EXPECT_GT(r.false_suspicions, 0) << "the lie was never even suspected";
  EXPECT_GT(r.suspicion_clears, 0);
  // ...but every live node - including both liars - must be unsuspected
  // by the end: final agreement means the live membership's suspect sets
  // equal the true crashed set ({19} here), so a permanently-suspected
  // liar would fail this.
  EXPECT_TRUE(r.final_agreement)
      << "a lying-but-alive node stayed suspected";
  // The genuine crash is still detected by everyone.
  EXPECT_EQ(r.missed_detections, 0);
  EXPECT_GT(r.detection_latency_ms.count(), 0);
}

TEST(Byzantine, LieTimelineIsShardCountInvariant) {
  const ScenarioDoc doc = load_doc("byzantine_counters.scn");
  ClusterConfig config = scenario_cluster_config(doc);
  config.shards = 1;
  const std::string base = report_fingerprint(run_cluster(config, 7u));
  for (const int shards : {2, 4}) {
    config.shards = shards;
    EXPECT_EQ(report_fingerprint(run_cluster(config, 7u)), base)
        << "shards=" << shards;
  }
}

TEST(Byzantine, JumpAheadLieHealsAfterCatchUp) {
  // A pure jump-ahead lie: peers' high-water marks run ~ delta x
  // intervals ahead, so after lie_end the liar looks stalled until its
  // true counter catches up - a bounded window, after which the cluster
  // must re-converge on an empty suspect set.
  ClusterConfig config;
  config.n = 16;
  config.max_nodes = 16;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = 8;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 400.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = 20'000.0;
  config.scenario.lie(4'000.0, 3, 5.0).lie_end(6'000.0, 3);
  const ClusterReport r = run_cluster(config, 99u);
  EXPECT_TRUE(r.final_agreement) << "jump-ahead liar never healed";
  EXPECT_EQ(r.missed_detections, 0);
}

TEST(Byzantine, RegressLieIsRefutedImmediatelyAfterLieEnd) {
  ClusterConfig config;
  config.n = 16;
  config.max_nodes = 16;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = 8;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 400.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = 16'000.0;
  config.scenario.lie(4'000.0, 3, -3.0).lie_end(10'000.0, 3);
  const ClusterReport r = run_cluster(config, 99u);
  // Six seconds of regressing advertisement is far beyond the Chen
  // timeout, so the liar is suspected while lying...
  EXPECT_GT(r.false_suspicions, 0);
  // ...and the first honest gossip after lie_end carries a counter far
  // above every high-water mark, clearing it well before the run ends.
  EXPECT_TRUE(r.final_agreement) << "regressing liar never refuted";
}

TEST(Byzantine, AdvertisedLieIsClampedToPlausibleCounters) {
  constexpr auto kMax =
      static_cast<std::uint32_t>(std::numeric_limits<std::int32_t>::max());
  ClusterNode liar(0, 2, NodeParams{});
  for (int k = 0; k < 5; ++k) liar.advance_own_counter();
  FaultState truth(2, 2);
  Scenario s;
  s.lie(1.0, 0, -1e12).lie_end(2.0, 0).lie(3.0, 0, 1e12);
  const std::vector<FaultEvent> events = s.sorted();

  // Honest until the lie starts; a huge regress bottoms out at 1.
  EXPECT_EQ(truth.advertise(0, 5), 5u);
  EXPECT_EQ(truth.apply(events[0], 1.0, &liar), FaultEffect::kOnset);
  EXPECT_EQ(truth.advertise(0, 6), 1u);
  EXPECT_EQ(truth.advertise(0, 7), 1u);
  EXPECT_EQ(truth.apply(events[1], 2.0, &liar), FaultEffect::kRelief);
  EXPECT_EQ(truth.advertise(0, 8), 8u);
  // A huge jump tops out at INT32_MAX and stays there.
  EXPECT_EQ(truth.apply(events[2], 3.0, &liar), FaultEffect::kOnset);
  EXPECT_EQ(truth.advertise(0, 9), kMax);
  EXPECT_EQ(truth.advertise(0, 10), kMax);
  // A replica that does not own the liar keeps no lie state for it.
  FaultState replica(2, 2);
  EXPECT_EQ(replica.apply(events[0], 1.0), FaultEffect::kOnset);
  EXPECT_EQ(replica.advertise(0, 6), 6u);
}

}  // namespace
}  // namespace rfd::cluster
