// Cluster-layer tests: partition/storm support in the network, crash
// detection under every dissemination topology, the scripted
// partition/heal scenario (all live nodes converge on the true crashed
// set after heal), churn, delay storms, determinism under a fixed seed,
// and the message-complexity separation (gossip sublinear vs all-to-all
// quadratic) that the E11 bench measures at scale. The digest codec's
// encoder and checked reader, and the node's digest-entry filter, are
// tested here too, and so are the two experiments that run on the engine:
// E9's Chen-Toueg QoS and E8's group membership (exclusion), with the
// engine's refusals of configurations its parts would abort on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/engine.hpp"
#include "cluster/membership.hpp"
#include "cluster/node.hpp"
#include "cluster/qos.hpp"
#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "runtime/network.hpp"
#include "transport/flaky.hpp"

namespace rfd::cluster {
namespace {

ClusterConfig base_config(TopologyKind kind, int n) {
  ClusterConfig config;
  config.n = n;
  config.topology.kind = kind;
  config.topology.digest_size = 16;
  config.detector.kind = rt::DetectorKind::kChen;
  // Indirect dissemination (gossip hops, digest rotation) adds jitter a
  // direct-heartbeat margin would not tolerate, and the sharded core's
  // barrier delivery adds up to half a check interval more per hop (a
  // message is observed at the next check-grid boundary after arrival).
  // Slack of ~4 heartbeat periods keeps every topology honest on a calm
  // network - exactly the tuning a real operator does.
  config.detector.chen.alpha_ms = 400.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = 20'000.0;
  return config;
}

TEST(Network, PartitionBlocksCrossTraffic) {
  rt::Network net(1, rt::NetworkParams{});
  net.set_partition({{0, 1}, {2, 3}});
  EXPECT_FALSE(net.partitioned(0, 1));
  EXPECT_FALSE(net.partitioned(2, 3));
  EXPECT_TRUE(net.partitioned(0, 2));
  EXPECT_TRUE(net.partitioned(3, 1));
  int delivered = 0;
  const auto send = [&](rt::NodeId from, rt::NodeId to) {
    if (net.route(from, to, 0.0)) ++delivered;
  };
  send(0, 2);
  send(0, 1);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.partition_dropped(), 1);

  net.clear_partition();
  EXPECT_FALSE(net.partitioned(0, 2));
  send(0, 2);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.partition_dropped(), 1);
}

TEST(Network, UnlistedNodesJoinFirstGroup) {
  rt::Network net(1, rt::NetworkParams{});
  net.set_partition({{0, 1}, {2}});
  // Node 7 is listed nowhere: it behaves as a member of groups[0].
  EXPECT_FALSE(net.partitioned(7, 0));
  EXPECT_TRUE(net.partitioned(7, 2));
}

TEST(Network, DelayStormRaisesDelays) {
  rt::NetworkParams params;
  rt::Network net(4, params);
  double calm_sum = 0.0;
  for (int i = 0; i < 300; ++i) calm_sum += net.sample_delay(0.0);
  net.set_storm(500.0, 1.0);
  double storm_sum = 0.0;
  for (int i = 0; i < 300; ++i) storm_sum += net.sample_delay(0.0);
  net.clear_storm();
  double after_sum = 0.0;
  for (int i = 0; i < 300; ++i) after_sum += net.sample_delay(0.0);
  EXPECT_GT(storm_sum / 300.0, calm_sum / 300.0 + 400.0);
  EXPECT_LT(after_sum / 300.0, calm_sum / 300.0 + 50.0);
}

TEST(ClusterNode, FixedTimeoutSuspectsAfterSilence) {
  // The inlined fixed detector: suspicion after 200 ms without a counter
  // advance, and a fresh advance restores trust.
  NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  params.detector.fixed.timeout_ms = 200.0;
  ClusterNode node(0, 2, params);
  node.learn_peer(1, 0.0);
  EXPECT_FALSE(node.observe(1, 1, 900.0).advanced);  // membership only
  EXPECT_TRUE(node.observe(1, 2, 1000.0).advanced);
  EXPECT_FALSE(node.suspects(1, 1100.0));
  EXPECT_TRUE(node.suspects(1, 1300.0));
  EXPECT_EQ(node.suspect_deadline(1), 1200.0);
  EXPECT_TRUE(node.observe(1, 3, 1350.0).advanced);  // trust restored
  EXPECT_FALSE(node.suspects(1, 1400.0));
}

TEST(ClusterNode, GraceThenDetectorTakesOver) {
  NodeParams params;
  params.bootstrap_grace_ms = 1000.0;
  ClusterNode node(0, 4, params);
  node.learn_peer(1, 0.0);
  EXPECT_TRUE(node.knows(1));
  EXPECT_FALSE(node.suspects(1, 500.0));   // inside the grace window
  EXPECT_TRUE(node.suspects(1, 1500.0));   // never heard: grace expired
  // The first-ever counter is a membership high-water mark, not a
  // heartbeat: a gossiped value can be arbitrarily stale (it could be a
  // dead node's final counter still circulating), so it must not buy
  // trust. Only an advance beyond it does.
  EXPECT_FALSE(node.observe(1, 5, 1600.0).advanced);
  EXPECT_TRUE(node.suspects(1, 1700.0));   // still only grace-covered
  EXPECT_TRUE(node.observe(1, 6, 1750.0).advanced);
  EXPECT_FALSE(node.suspects(1, 1800.0));  // detector trusts the advance
  // Stale and zero counters are not liveness evidence.
  EXPECT_FALSE(node.observe(1, 5, 1850.0).advanced);
  EXPECT_FALSE(node.observe(1, 3, 1900.0).advanced);
  EXPECT_FALSE(node.observe(2, 0, 2000.0).advanced);
  EXPECT_TRUE(node.knows(2));  // ...but they do carry membership
  EXPECT_FALSE(node.suspects(0, 5000.0));  // never self-suspects
}

TEST(ClusterNode, UnheardPeerExpiresAtKnownSincePlusGrace) {
  // Until its first counter advance a peer is judged by the grace window
  // counted from when it became known - also after a first counter,
  // which proves membership only - on both detector families.
  for (const rt::DetectorKind kind :
       {rt::DetectorKind::kFixed, rt::DetectorKind::kChen}) {
    NodeParams params;
    params.detector.kind = kind;
    params.detector.fixed.timeout_ms = 200.0;
    params.bootstrap_grace_ms = 1000.0;
    ClusterNode node(0, 3, params);
    node.learn_peer(1, 300.0);
    EXPECT_EQ(node.suspect_deadline(1), 1300.0);
    EXPECT_FALSE(node.observe(1, 4, 900.0).advanced);
    EXPECT_EQ(node.suspect_deadline(1), 1300.0);
    EXPECT_FALSE(node.suspects(1, 1300.0));
    EXPECT_TRUE(node.suspects(1, 1300.5));
    // A peer first met through a digest entry is known from then on.
    EXPECT_TRUE(node.observe(2, 0, 700.0).newly_known);
    EXPECT_EQ(node.suspect_deadline(2), 1700.0);
  }
}

TEST(ClusterNode, FirstAdvanceSwitchesToTheTimeout) {
  // A kFixed peer's one time slot turns from the grace origin into the
  // last heartbeat: the deadline becomes last + timeout, even where that
  // lies past the grace deadline, and only the first advance reports
  // that the detector started.
  NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  params.detector.fixed.timeout_ms = 800.0;
  params.bootstrap_grace_ms = 1000.0;
  ClusterNode node(0, 2, params);
  node.learn_peer(1, 0.0);
  EXPECT_FALSE(node.observe(1, 1, 100.0).started_detector);
  const ObserveResult first = node.observe(1, 2, 900.0);
  EXPECT_TRUE(first.advanced);
  EXPECT_TRUE(first.started_detector);
  EXPECT_EQ(node.suspect_deadline(1), 1700.0);
  EXPECT_FALSE(node.suspects(1, 1600.0));  // the grace origin is gone
  EXPECT_TRUE(node.suspects(1, 1700.5));
  const ObserveResult second = node.observe(1, 3, 1000.0);
  EXPECT_TRUE(second.advanced);
  EXPECT_FALSE(second.started_detector);
  EXPECT_EQ(node.suspect_deadline(1), 1800.0);
}

TEST(ClusterNode, ResetPeersClearsTheHeardBit) {
  // A restart forgets the heartbeat: a re-seeded contact is grace-covered
  // from the reset, and its next advance starts the detector again.
  NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  params.detector.fixed.timeout_ms = 200.0;
  params.bootstrap_grace_ms = 1000.0;
  ClusterNode node(0, 3, params);
  node.learn_peer(1, 0.0);
  node.observe(1, 1, 100.0);
  ASSERT_TRUE(node.observe(1, 2, 200.0).started_detector);
  ASSERT_EQ(node.suspect_deadline(1), 400.0);
  node.reset_peers(5000.0, {1});
  EXPECT_TRUE(node.knows(1));
  EXPECT_EQ(node.suspect_deadline(1), 6000.0);
  EXPECT_FALSE(node.suspects(1, 5900.0));
  EXPECT_FALSE(node.observe(1, 3, 5100.0).advanced);  // membership only
  EXPECT_TRUE(node.observe(1, 4, 5200.0).started_detector);
  EXPECT_EQ(node.suspect_deadline(1), 5400.0);
}

TEST(ClusterNode, MayChangeDropsOnlyEntriesObserveIgnores) {
  // Twin nodes take the same randomized digests: one observes every
  // entry, the other only the entries may_change() keeps, judged
  // against its state before the digest (as the engine filters a whole
  // payload before observing it). Their checkpoints and summed observe
  // results must match after every digest.
  constexpr int kMaxNodes = 64;
  constexpr NodeId kSelf = 5;
  for (const rt::DetectorKind kind :
       {rt::DetectorKind::kFixed, rt::DetectorKind::kChen}) {
    NodeParams params;
    params.detector.kind = kind;
    ClusterNode all(kSelf, kMaxNodes, params);
    ClusterNode twin(kSelf, kMaxNodes, params);
    for (NodeId seed = 0; seed < 8; ++seed) {
      all.learn_peer(seed, 0.0);
      twin.learn_peer(seed, 0.0);
    }
    Rng rng(kind == rt::DetectorKind::kFixed ? 11 : 12);
    std::array<int, 3> sum_all{};
    std::array<int, 3> sum_twin{};
    const auto add = [](std::array<int, 3>& sum, const ObserveResult& r) {
      sum[0] += r.advanced;
      sum[1] += r.newly_known;
      sum[2] += r.started_detector;
    };
    int kept = 0;
    int dropped = 0;
    for (int digest = 0; digest < 300; ++digest) {
      const double now = 10.0 * (digest + 1);
      std::vector<std::pair<NodeId, std::int32_t>> entries;
      const int size = static_cast<int>(rng.range(1, 24));
      for (int e = 0; e < size; ++e) {
        NodeId peer = static_cast<NodeId>(rng.below(kMaxNodes));
        switch (rng.below(8)) {
          case 0: peer = kSelf; break;
          case 1: peer = -1; break;
          case 2: peer = kMaxNodes; break;
          case 3:
            if (!entries.empty()) peer = entries.back().first;  // duplicate
            break;
          default: break;
        }
        const bool in_range = peer >= 0 && peer < kMaxNodes;
        const std::int32_t on_file = in_range ? all.counter(peer) : 0;
        std::int32_t counter = 0;
        switch (rng.below(5)) {
          case 0: break;  // zero
          case 1:         // stale, or equal to the counter on file
            counter = on_file - static_cast<std::int32_t>(rng.below(3));
            break;
          case 2:  // a varint >= 2^31 reads as a negative int32
            counter = static_cast<std::int32_t>(static_cast<std::uint32_t>(
                rng.range(std::int64_t{1} << 31, 0xffffffffLL)));
            break;
          default:  // fresh
            counter = on_file + 1 + static_cast<std::int32_t>(rng.below(3));
            break;
        }
        entries.emplace_back(peer, counter);
      }
      std::vector<std::pair<NodeId, std::int32_t>> survivors;
      for (const auto& [peer, counter] : entries) {
        if (twin.may_change(peer, counter)) {
          survivors.emplace_back(peer, counter);
        }
      }
      kept += static_cast<int>(survivors.size());
      dropped += static_cast<int>(entries.size() - survivors.size());
      for (const auto& [peer, counter] : entries) {
        add(sum_all, all.observe(peer, counter, now));
      }
      for (const auto& [peer, counter] : survivors) {
        add(sum_twin, twin.observe(peer, counter, now));
      }
      std::vector<std::uint8_t> a;
      std::vector<std::uint8_t> b;
      all.save_state(a);
      twin.save_state(b);
      ASSERT_EQ(a, b) << "digest " << digest;
      ASSERT_EQ(sum_all, sum_twin) << "digest " << digest;
    }
    // Both sides of the predicate were exercised, and the digests
    // advanced, introduced and started detectors for real.
    EXPECT_GT(kept, 500);
    EXPECT_GT(dropped, 500);
    EXPECT_GT(sum_all[0], 100);
    EXPECT_GT(sum_all[1], 20);
    EXPECT_GT(sum_all[2], 20);
  }
}

class EveryTopology : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(EveryTopology, EveryLiveNodeDetectsTheCrash) {
  ClusterConfig config = base_config(GetParam(), 16);
  config.topology.cluster_size = 4;
  config.scenario.crash(5'000.0, 3);
  const ClusterReport report = run_cluster(config, 7);

  EXPECT_EQ(report.detection_latency_ms.count(), 15) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  // Multi-hop dissemination has gap tails even on a calm network; a
  // couple of self-healing flaps over 20s is within spec, sustained
  // flapping is not.
  EXPECT_LE(report.false_suspicions, 2) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.convergence_ms.count(), 1) << report.summary();
  EXPECT_GT(report.detection_latency_ms.max(), 0.0);
  EXPECT_LT(report.detection_latency_ms.max(), 10'000.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryTopology,
                         ::testing::Values(TopologyKind::kAllToAll,
                                           TopologyKind::kRing,
                                           TopologyKind::kGossip,
                                           TopologyKind::kHierarchical));

TEST(Cluster, PartitionHealConvergesOnTrueCrashedSet) {
  // The acceptance scenario: split 16 nodes down the middle, crash one
  // node inside the partition, heal, and require every live node to end
  // agreeing on exactly {3} as the crashed set.
  ClusterConfig config = base_config(TopologyKind::kGossip, 16);
  config.duration_ms = 30'000.0;
  config.scenario
      .partition(4'000.0, {{0, 1, 2, 3, 4, 5, 6, 7},
                           {8, 9, 10, 11, 12, 13, 14, 15}})
      .crash(8'000.0, 3)
      .heal(14'000.0);
  const ClusterReport report = run_cluster(config, 11);

  // Both sides falsely suspected the other during the cut...
  EXPECT_GT(report.false_suspicions, 0) << report.summary();
  EXPECT_GT(report.partition_dropped, 0);
  // ...yet after heal everyone converges on the truth.
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.detection_latency_ms.count(), 15) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_GE(report.convergence_ms.count(), 1) << report.summary();
}

TEST(Cluster, PartitionHealIsDeterministicUnderFixedSeed) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 16);
  config.duration_ms = 30'000.0;
  config.scenario
      .partition(4'000.0, {{0, 1, 2, 3, 4, 5, 6, 7},
                           {8, 9, 10, 11, 12, 13, 14, 15}})
      .crash(8'000.0, 3)
      .heal(14'000.0);
  const ClusterReport a = run_cluster(config, 11);
  const ClusterReport b = run_cluster(config, 11);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.detection_latency_ms.count(), b.detection_latency_ms.count());
  EXPECT_DOUBLE_EQ(a.detection_latency_ms.mean(),
                   b.detection_latency_ms.mean());
  EXPECT_DOUBLE_EQ(a.convergence_ms.mean(), b.convergence_ms.mean());
}

TEST(Cluster, ChurnJoinAndSilentLeave) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 8);
  config.max_nodes = 9;
  config.duration_ms = 25'000.0;
  config.scenario.join(3'000.0, 8).leave(10'000.0, 2);
  const ClusterReport report = run_cluster(config, 5);

  // The silent leave is indistinguishable from a crash: all 8 remaining
  // live nodes (7 originals + the joiner) must detect it.
  EXPECT_EQ(report.detection_latency_ms.count(), 8) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
}

TEST(Cluster, CrashRecoveryIsForgiven) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 8);
  config.duration_ms = 25'000.0;
  config.scenario.crash(5'000.0, 2).recover(12'000.0, 2);
  const ClusterReport report = run_cluster(config, 3);

  // The node was down, so suspicions of it were accurate; after recovery
  // everyone (including the restarted node, which lost its peer memory)
  // must settle back into full agreement with nobody suspected.
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.detection_latency_ms.count(), 0) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_GE(report.disruptions, 2);
}

TEST(Cluster, RecoveredNodeRelearnsTheDead) {
  // A restarted node rejoins with empty peer memory while another node
  // is already dead. The dead node's final counter still circulates in
  // digests; it must read as membership, not as a heartbeat, so the
  // restarted node ends up suspecting the dead peer like everyone else
  // instead of trusting a ghost.
  ClusterConfig config = base_config(TopologyKind::kGossip, 8);
  config.duration_ms = 30'000.0;
  config.scenario.crash(5'000.0, 2).crash(8'000.0, 3).recover(14'000.0, 3);
  const ClusterReport report = run_cluster(config, 9);

  // 7 live nodes at the end, every one of them - including restarted
  // node 3 - must have victim 2 in its crashed set.
  EXPECT_EQ(report.detection_latency_ms.count(), 7) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
}

TEST(Cluster, DelayStormCausesFalseSuspicionsThatHeal) {
  ClusterConfig config = base_config(TopologyKind::kAllToAll, 8);
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 250.0;
  config.duration_ms = 20'000.0;
  config.scenario.delay_storm(4'000.0, 9'000.0, 1'000.0, 0.8);
  const ClusterReport report = run_cluster(config, 2);

  EXPECT_GT(report.false_suspicions, 0) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.missed_detections, 0);
}

TEST(Cluster, GossipMessageLoadIsSublinear) {
  // The reason gossip architectures exist: per-node message load is flat
  // in n, where all-to-all grows linearly (O(n^2) cluster-wide).
  ClusterConfig g16 = base_config(TopologyKind::kGossip, 16);
  ClusterConfig g64 = base_config(TopologyKind::kGossip, 64);
  ClusterConfig a64 = base_config(TopologyKind::kAllToAll, 64);
  for (ClusterConfig* config : {&g16, &g64, &a64}) {
    config->duration_ms = 6'000.0;
  }
  const ClusterReport rg16 = run_cluster(g16, 1);
  const ClusterReport rg64 = run_cluster(g64, 1);
  const ClusterReport ra64 = run_cluster(a64, 1);

  EXPECT_LT(rg64.messages_per_node_per_s,
            ra64.messages_per_node_per_s / 5.0);
  EXPECT_LT(rg64.messages_per_node_per_s,
            rg16.messages_per_node_per_s * 1.5);
  EXPECT_GT(ra64.messages_per_node_per_s,
            rg64.messages_per_node_per_s);
}

TEST(DigestCodec, RoundTripsWorstCaseVarints) {
  // Covers the raw-cursor encode fast path at the varint extremes that a
  // short simulation never reaches: multi-byte gaps, 32-bit maxima, and
  // duplicate ids (zero gaps), appended after pre-existing payload bytes
  // the way the engine reuses pooled buffers.
  const std::vector<std::int32_t> ids = {0,       5,          5,
                                         127,     128,        16'384,
                                         1 << 21, 2'000'000'000};
  const auto counter_of = [](std::int32_t id) {
    return static_cast<std::uint32_t>(id) * 2654435761u;
  };
  std::vector<std::uint8_t> out = {0xab, 0xcd};  // pre-existing bytes
  encode_digest(0xdeadbeefu, ids, counter_of, out);
  ASSERT_GT(out.size(), 2u);
  EXPECT_EQ(out[0], 0xab);
  EXPECT_EQ(out[1], 0xcd);

  DigestReader reader(out.data() + 2, out.size() - 2,
                      std::numeric_limits<std::int32_t>::max());
  std::uint32_t own = 0;
  std::uint32_t count = 0;
  ASSERT_TRUE(reader.header(own, count));
  EXPECT_EQ(own, 0xdeadbeefu);
  ASSERT_EQ(count, ids.size());
  for (const std::int32_t expected : ids) {
    std::int32_t id = -1;
    std::uint32_t counter = 0;
    ASSERT_TRUE(reader.entry(id, counter));
    EXPECT_EQ(id, expected);
    EXPECT_EQ(counter, counter_of(expected));
  }
  EXPECT_TRUE(reader.done());
}

TEST(DigestCodec, EncoderMatchesSortedEncode) {
  // DigestEncoder must write exactly what encode_digest writes for the
  // std::sort-ed selection, for every shape ClusterNode::select_digest
  // emits - a hot prefix of distinct ids in queue order followed by a
  // rotation run that may repeat some of them - plus the hand-built
  // third copy that takes the sort fallback. One encoder runs over the
  // selections twice, so every call after the first only matches if
  // the call before it left the scratch bitmaps zeroed.
  const auto counter_of = [](std::int32_t id) {
    return static_cast<std::uint32_t>(id) * 2654435761u;
  };
  Rng rng(0xd16e57);
  for (const std::int32_t universe : {1, 63, 64, 65, 256, 2048, 4095}) {
    std::vector<std::int32_t> all(static_cast<std::size_t>(universe));
    std::iota(all.begin(), all.end(), 0);
    std::vector<std::vector<std::int32_t>> selections;
    selections.emplace_back();  // empty
    for (int round = 0; round < 8; ++round) {
      std::shuffle(all.begin(), all.end(), rng);
      // Distinct ids in random order (a hot pass that filled the budget).
      const auto hot = static_cast<std::size_t>(rng.range(1, universe));
      selections.emplace_back(all.begin(), all.begin() + hot);
      // Hot prefix + a rotation run over the id space from a random
      // cursor: every id at most twice.
      std::vector<std::int32_t> twice(all.begin(),
                                      all.begin() + rng.range(0, hot));
      const std::int64_t cursor = rng.below(universe);
      const std::int64_t run = rng.range(1, universe);
      for (std::int64_t k = 0; k < run; ++k) {
        twice.push_back(static_cast<std::int32_t>((cursor + k) % universe));
      }
      selections.push_back(twice);
    }
    std::vector<std::int32_t> thrice = selections.back();
    thrice.push_back(thrice.front());
    thrice.push_back(thrice.front());
    selections.push_back(thrice);

    DigestEncoder encoder(universe);
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::vector<std::int32_t>& ids : selections) {
        std::vector<std::int32_t> sorted = ids;
        std::sort(sorted.begin(), sorted.end());
        std::vector<std::uint8_t> want = {0x5a};  // pre-existing bytes
        encode_digest(77u, sorted, counter_of, want);
        std::vector<std::uint8_t> got = {0x5a};
        encoder.encode(77u, ids, counter_of, got);
        ASSERT_EQ(got, want) << "universe " << universe << ", "
                             << ids.size() << " ids, pass " << pass;
      }
    }
  }
}

/// Decodes a whole payload the way the soak does; false = dropped.
bool decodes(const std::vector<std::uint8_t>& payload,
             std::int32_t max_nodes) {
  DigestReader reader(payload.data(), payload.size(), max_nodes);
  std::uint32_t own = 0;
  std::uint32_t count = 0;
  if (!reader.header(own, count)) return false;
  for (std::uint32_t e = 0; e < count; ++e) {
    std::int32_t id = 0;
    std::uint32_t counter = 0;
    if (!reader.entry(id, counter)) return false;
  }
  return true;
}

TEST(DigestCodec, ReaderRejectsCraftedPayloads) {
  // Payloads a hostile sender can put in a datagram: each must be
  // rejected without undefined behaviour (the sanitizer CI job runs
  // this under UBSan), and the well-formed control must decode.
  constexpr std::int32_t kMaxNodes = 4096;
  std::vector<std::uint8_t> ok;
  for (const std::uint32_t v : {5u, 2u, 4095u, 9u}) put_varint(ok, v);
  ASSERT_FALSE(decodes(ok, kMaxNodes));  // count 2, one entry present
  put_varint(ok, 0u);
  put_varint(ok, 9u);
  EXPECT_TRUE(decodes(ok, kMaxNodes));  // id 4095 twice
  EXPECT_FALSE(decodes(ok, 4095));      // id 4095 is out of range

  // Gap 0x7fffffff after id 4095: the sum would overflow int32.
  std::vector<std::uint8_t> overflow;
  for (const std::uint32_t v : {5u, 2u, 4095u, 9u, 0x7fffffffu, 9u}) {
    put_varint(overflow, v);
  }
  EXPECT_FALSE(decodes(overflow, kMaxNodes));
  EXPECT_FALSE(decodes(overflow, std::numeric_limits<std::int32_t>::max()));

  // A 6-byte varint, and a 5-byte one whose value needs 33 bits.
  EXPECT_FALSE(decodes({0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00},
                       kMaxNodes));
  EXPECT_FALSE(decodes({0xff, 0xff, 0xff, 0xff, 0x1f, 0x00}, kMaxNodes));
  EXPECT_TRUE(decodes({0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}, kMaxNodes));

  // Truncation after `count`, inside a varint, and before `count`.
  EXPECT_FALSE(decodes({0x05, 0x01}, kMaxNodes));
  EXPECT_FALSE(decodes({0x05, 0x01, 0x80, 0x80}, kMaxNodes));
  EXPECT_FALSE(decodes({0x05}, kMaxNodes));
  EXPECT_FALSE(decodes({}, kMaxNodes));

  // A count larger than the entries present, whether it fits the bytes
  // left (the third entry is missing) or not, and one beyond two copies
  // of every id.
  std::vector<std::uint8_t> short_count;
  for (const std::uint32_t v : {5u, 3u, 1u, 300u, 1u, 300u}) {
    put_varint(short_count, v);
  }
  EXPECT_FALSE(decodes(short_count, kMaxNodes));
  EXPECT_FALSE(decodes({0x05, 0x7f, 0x01, 0x01}, kMaxNodes));
  std::vector<std::uint8_t> too_many = {0x05, 0x05};
  for (int e = 0; e < 5; ++e) too_many.insert(too_many.end(), {0x00, 0x01});
  EXPECT_FALSE(decodes(too_many, 2));
  EXPECT_TRUE(decodes({0x05, 0x00}, 0));  // empty digest, empty universe
}

TEST(Cluster, HierarchicalLoadSitsBetweenGossipAndAllToAll) {
  ClusterConfig h = base_config(TopologyKind::kHierarchical, 64);
  ClusterConfig g = base_config(TopologyKind::kGossip, 64);
  ClusterConfig a = base_config(TopologyKind::kAllToAll, 64);
  for (ClusterConfig* config : {&h, &g, &a}) {
    config->duration_ms = 6'000.0;
  }
  const ClusterReport rh = run_cluster(h, 1);
  const ClusterReport rg = run_cluster(g, 1);
  const ClusterReport ra = run_cluster(a, 1);
  EXPECT_GT(rh.messages_per_node_per_s, rg.messages_per_node_per_s);
  EXPECT_LT(rh.messages_per_node_per_s, ra.messages_per_node_per_s);
}

TEST(ClusterLimitsDeathTest, MaxNodesPast65536IsRefused) {
  // The suspicion wheel's pair keys are 32 bits; the engine refuses a
  // larger id space before allocating its n^2 state.
  ClusterConfig config = base_config(TopologyKind::kGossip, 2);
  config.max_nodes = 65537;
  EXPECT_DEATH(run_cluster(config, 7), "65536");
  // A node built outside the engine refuses it too: its hot ring holds
  // 16-bit ids.
  EXPECT_DEATH(ClusterNode(0, 65537, NodeParams{}), "65536");
}

TEST(ClusterLimitsDeathTest, MoreCheckTicksThan32BitsHoldIsRefused) {
  // 3e9 ticks of 1 ms: refused up front by the duration / interval
  // check, not after run() has counted 2^31 of them.
  ClusterConfig config = base_config(TopologyKind::kGossip, 2);
  config.check_interval_ms = 1.0;
  config.duration_ms = 3e9;
  EXPECT_DEATH(run_cluster(config, 7),
               "duration_ms / check_interval_ms must stay below");
}

TEST(ClusterConfig, ConfigErrorRefusesWhatThePartsWouldAbortOn) {
  // Each row would abort inside a node, a detector, the topology or the
  // network; config_error names it first, NaN included.
  transport::FlakyTransport wire(nullptr, 8, 1, transport::FlakyParams{});
  const std::vector<std::pair<const char*, void (*)(ClusterConfig&)>> rows = {
      {"fixed timeout 0",
       [](ClusterConfig& c) {
         c.detector.kind = rt::DetectorKind::kFixed;
         c.detector.fixed.timeout_ms = 0.0;
       }},
      {"fixed timeout nan",
       [](ClusterConfig& c) {
         c.detector.kind = rt::DetectorKind::kFixed;
         c.detector.fixed.timeout_ms = std::nan("");
       }},
      {"chen window 1", [](ClusterConfig& c) { c.detector.chen.window = 1; }},
      {"chen alpha nan",
       [](ClusterConfig& c) { c.detector.chen.alpha_ms = std::nan(""); }},
      {"phi threshold 0",
       [](ClusterConfig& c) {
         c.detector.kind = rt::DetectorKind::kPhi;
         c.detector.phi.threshold = 0.0;
       }},
      {"phi window 0",
       [](ClusterConfig& c) {
         c.detector.kind = rt::DetectorKind::kPhi;
         c.detector.phi.window = 0;
       }},
      {"loss 1", [](ClusterConfig& c) { c.network.loss_prob = 1.0; }},
      {"loss nan",
       [](ClusterConfig& c) { c.network.loss_prob = std::nan(""); }},
      {"loss -0.1", [](ClusterConfig& c) { c.network.loss_prob = -0.1; }},
      {"min delay -1", [](ClusterConfig& c) { c.network.min_delay_ms = -1.0; }},
      {"min delay nan",
       [](ClusterConfig& c) { c.network.min_delay_ms = std::nan(""); }},
      {"jitter sigma nan",
       [](ClusterConfig& c) { c.network.jitter_sigma = std::nan(""); }},
      {"pre-GST extra -5",
       [](ClusterConfig& c) { c.network.pre_gst_extra_ms = -5.0; }},
      {"chaos prob 2",
       [](ClusterConfig& c) { c.network.pre_gst_chaos_prob = 2.0; }},
      {"gst nan", [](ClusterConfig& c) { c.network.gst_ms = std::nan(""); }},
      {"grace 0", [](ClusterConfig& c) { c.bootstrap_grace_ms = 0.0; }},
      {"grace nan",
       [](ClusterConfig& c) { c.bootstrap_grace_ms = std::nan(""); }},
      {"hot transmissions 0",
       [](ClusterConfig& c) { c.hot_transmissions = 0; }},
      {"hot transmissions 128",
       [](ClusterConfig& c) { c.hot_transmissions = 128; }},
      {"gossip fanout 0",
       [](ClusterConfig& c) { c.topology.gossip_fanout = 0; }},
      {"ring successors 0",
       [](ClusterConfig& c) {
         c.topology.kind = TopologyKind::kRing;
         c.topology.ring_successors = 0;
       }},
      {"heartbeat 0", [](ClusterConfig& c) { c.heartbeat_interval_ms = 0.0; }},
  };
  const ClusterConfig base = base_config(TopologyKind::kGossip, 8);
  ASSERT_EQ(config_error(base), "");
  for (const auto& [name, mutate] : rows) {
    ClusterConfig config = base;
    mutate(config);
    EXPECT_NE(config_error(config), "") << name;
  }
  ClusterConfig fenced = base;
  fenced.exclusion = true;
  fenced.scenario.crash(1'000.0, 3);
  EXPECT_EQ(config_error(fenced), "");
  ClusterConfig revived = fenced;
  revived.scenario.recover(2'000.0, 3);
  EXPECT_NE(config_error(revived), "") << "exclusion with a recover";
  fenced.transport = &wire;
  EXPECT_NE(config_error(fenced), "") << "exclusion over a caller's transport";
}

TEST(Qos, CrashIsDetected) {
  QosConfig config;
  config.detector.kind = rt::DetectorKind::kChen;
  config.crash_at_ms = 20'000.0;
  config.duration_ms = 30'000.0;
  const QosResult r = run_qos_experiment(config, 1);
  ASSERT_TRUE(r.crashed);
  EXPECT_GE(r.detection_time_ms, 0.0);
  EXPECT_LT(r.detection_time_ms, 2000.0);
}

TEST(Qos, NoCrashNoDetection) {
  QosConfig config;
  config.crash_at_ms = -1.0;
  config.duration_ms = 15'000.0;
  const QosResult r = run_qos_experiment(config, 2);
  EXPECT_FALSE(r.crashed);
  EXPECT_LT(r.detection_time_ms, 0.0);
}

TEST(Qos, TightTimeoutTradesAccuracyForSpeed) {
  // The fundamental QoS trade: a short fixed timeout detects faster but
  // makes more mistakes on a jittery network than a long one.
  QosConfig tight;
  tight.detector.kind = rt::DetectorKind::kFixed;
  tight.detector.fixed.timeout_ms = 120.0;
  tight.network.jitter_sigma = 1.2;
  tight.network.loss_prob = 0.05;
  QosConfig loose = tight;
  loose.detector.fixed.timeout_ms = 900.0;

  const QosAggregate a = run_qos_sweep(tight, 3, 10);
  const QosAggregate b = run_qos_sweep(loose, 3, 10);
  EXPECT_GT(a.mistake_rate_per_s.mean(), b.mistake_rate_per_s.mean());
  EXPECT_LT(a.detection_time_ms.mean(), b.detection_time_ms.mean());
}

TEST(Qos, LossyNetworkHurtsFixedTimeout) {
  QosConfig clean;
  clean.detector.kind = rt::DetectorKind::kFixed;
  clean.detector.fixed.timeout_ms = 150.0;
  QosConfig lossy = clean;
  lossy.network.loss_prob = 0.3;
  const QosAggregate a = run_qos_sweep(clean, 5, 8);
  const QosAggregate b = run_qos_sweep(lossy, 5, 8);
  EXPECT_LE(a.mistake_rate_per_s.mean(), b.mistake_rate_per_s.mean());
}

TEST(Membership, CrashedNodeIsExcluded) {
  MembershipConfig config;
  config.n = 5;
  config.crash_at_ms = std::vector<double>(5, -1.0);
  config.crash_at_ms[3] = 10'000.0;
  config.duration_ms = 30'000.0;
  const MembershipResult r = run_membership_experiment(config, 1);
  EXPECT_GE(r.exclusions, 1);
  EXPECT_EQ(r.false_exclusions, 0);
  EXPECT_TRUE(r.converged) << r.final_view;
  EXPECT_TRUE(r.suspicions_accurate);
  EXPECT_GT(r.exclusion_latency_ms.count(), 0);
}

TEST(Membership, CoordinatorCrashTriggersFailover) {
  MembershipConfig config;
  config.n = 5;
  config.crash_at_ms = std::vector<double>(5, -1.0);
  config.crash_at_ms[0] = 8'000.0;  // the initial coordinator dies
  config.duration_ms = 30'000.0;
  const MembershipResult r = run_membership_experiment(config, 2);
  EXPECT_TRUE(r.converged) << r.final_view;
  EXPECT_NE(r.final_view.find("{1"), std::string::npos) << r.final_view;
}

TEST(Membership, AggressiveTimeoutsSacrificeLiveNodes) {
  // The cost of emulating P: with hair-trigger timeouts on a jittery
  // pre-GST network, live nodes get excluded - and then halt, making every
  // suspicion "accurate" exactly as the paper describes.
  MembershipConfig config;
  config.n = 6;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 110.0;
  config.network.jitter_sigma = 1.0;
  config.network.gst_ms = 20'000.0;
  config.network.pre_gst_extra_ms = 400.0;
  config.network.pre_gst_chaos_prob = 0.5;
  config.duration_ms = 40'000.0;
  std::int64_t false_exclusions = 0;
  bool all_accurate = true;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const MembershipResult r = run_membership_experiment(config, seed);
    false_exclusions += r.false_exclusions;
    all_accurate = all_accurate && r.suspicions_accurate;
  }
  EXPECT_GT(false_exclusions, 0);
  EXPECT_TRUE(all_accurate);
}

TEST(Membership, StableNetworkKeepsEveryone) {
  MembershipConfig config;
  config.n = 5;
  config.detector.kind = rt::DetectorKind::kChen;
  config.duration_ms = 20'000.0;
  const MembershipResult r = run_membership_experiment(config, 7);
  EXPECT_EQ(r.exclusions, 0);
  EXPECT_TRUE(r.converged) << r.final_view;
}

}  // namespace
}  // namespace rfd::cluster
