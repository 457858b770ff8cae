// The sharded core's contract: a fixed-seed cluster run is a pure
// function of (config, seed) and nothing else - the shard count changes
// wall-clock, never a single metric or trace byte. These tests run the
// same scenarios at shards = 1, 2 and 4 and require field-identical
// reports and byte-identical JSONL traces (see cluster/engine.cpp for
// the barrier protocol and the determinism argument being verified),
// including a run the graceful-stop flag ends after its first window.
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "scenario_test_util.hpp"

namespace rfd::cluster {
namespace {

std::string temp_trace_path(const char* tag, int shards) {
  std::ostringstream ss;
  ss << ::testing::TempDir() << "/rfd_shard_" << tag << "_" << shards
     << ".jsonl";
  return ss.str();
}

ClusterConfig shard_config(int n) {
  ClusterConfig config;
  config.n = n;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = 16;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 400.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = 12'000.0;
  return config;
}

using testutil::read_file;
using testutil::report_fingerprint;

/// The mistakes and the group's exclusions, which report_fingerprint
/// leaves out.
std::string mistake_and_group_fields(const ClusterReport& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.mistakes << '|' << r.mistake_ms << '|' << r.false_exclusions
     << '|' << r.exclusion_latency_ms.count() << '|'
     << r.exclusion_latency_ms.sum() << '|' << r.excluded_down << '|';
  for (const int id : r.excluded) ss << id << ',';
  return ss.str();
}

struct ShardRun {
  ClusterReport report;
  std::string trace;
};

/// Runs `config` at shards 1, 2 and 4, requires every run to match the
/// shards=1 report and trace bytes, and returns that shards=1 run.
ShardRun expect_shard_invariant(ClusterConfig config, std::uint64_t seed,
                                const char* tag) {
  ShardRun baseline;
  std::string baseline_report;
  for (const int shards : {1, 2, 4}) {
    config.shards = shards;
    const std::string path = temp_trace_path(tag, shards);
    config.obs.trace_path = path;
    config.obs.snapshot_every_ticks = 10;
    ClusterReport report = run_cluster(config, seed);
    EXPECT_EQ(report.trace_dropped, 0);
    const std::string fingerprint = report_fingerprint(report);
    std::string trace = read_file(path);
    std::remove(path.c_str());
    EXPECT_FALSE(trace.empty());
    if (shards == 1) {
      baseline_report = fingerprint;
      baseline = ShardRun{std::move(report), std::move(trace)};
      continue;
    }
    EXPECT_EQ(fingerprint, baseline_report)
        << tag << ": report diverged at shards=" << shards;
    EXPECT_EQ(mistake_and_group_fields(report),
              mistake_and_group_fields(baseline.report))
        << tag << ": mistakes or exclusions diverged at shards=" << shards;
    // Byte-identical, not merely equivalent: the merged trace is the
    // replay/analysis input, so even reordering within a timestamp
    // would be a regression.
    EXPECT_EQ(trace, baseline.trace)
        << tag << ": trace bytes diverged at shards=" << shards;
  }
  return baseline;
}

TEST(ShardDeterminism, CalmRunIsShardCountInvariant) {
  for (const std::uint64_t seed : {7ull, 11ull, 20260808ull}) {
    expect_shard_invariant(shard_config(24), seed, "calm");
  }
}

TEST(ShardDeterminism, CrashScenarioIsShardCountInvariant) {
  for (const std::uint64_t seed : {7ull, 11ull, 20260808ull}) {
    ClusterConfig config = shard_config(24);
    config.scenario.crash(4'000.0, 3).crash(4'000.0, 17);
    expect_shard_invariant(config, seed, "crash");
  }
}

TEST(ShardDeterminism, PartitionHealAndChurnIsShardCountInvariant) {
  // The full scenario surface in one run: a partition (per-shard network
  // replicas must agree), a crash inside it, a heal (coordinator-side
  // disruption bookkeeping), plus a join and a silent leave (ids beyond
  // n, reseeded membership).
  for (const std::uint64_t seed : {7ull, 11ull, 20260808ull}) {
    ClusterConfig config = shard_config(16);
    config.max_nodes = 17;
    config.duration_ms = 20'000.0;
    config.scenario
        .partition(3'000.0, {{0, 1, 2, 3, 4, 5, 6, 7},
                             {8, 9, 10, 11, 12, 13, 14, 15}})
        .crash(5'000.0, 3)
        .heal(8'000.0)
        .join(10'000.0, 16)
        .leave(13'000.0, 11);
    expect_shard_invariant(config, seed, "scenario");
  }
}

// The new fault primitives with shard-local state - directed link
// blocks, per-node delay factors - must behave identically no matter
// which shard's network replica applies them. Each scenario file from
// the checked-in library runs at shards 1/2/4 expecting byte-identical
// traces, under the same reference configuration the golden digests pin.
void expect_scenario_file_shard_invariant(const char* file,
                                          const char* tag) {
  const ScenarioDoc doc = testutil::load_doc(file);
  ASSERT_FALSE(doc.scenario.events.empty()) << file;
  const ClusterConfig config = testutil::scenario_cluster_config(doc);
  for (const std::uint64_t seed : {7ull, 20020623ull}) {
    expect_shard_invariant(config, seed, tag);
  }
}

TEST(ShardDeterminism, FlappingLinksScenarioIsShardCountInvariant) {
  expect_scenario_file_shard_invariant("flapping_links.scn", "flap");
}

TEST(ShardDeterminism, SlowNodesScenarioIsShardCountInvariant) {
  expect_scenario_file_shard_invariant("slow_nodes.scn", "slow");
}

TEST(ShardDeterminism, AsymmetricPartitionScenarioIsShardCountInvariant) {
  expect_scenario_file_shard_invariant("asymmetric_partition.scn", "oneway");
}

TEST(ShardDeterminism, StopFlagEndsEveryShardCountAfterTheFirstWindow) {
  // A stop flag that already reads true is seen at the first check tick:
  // every shard count ends there together, normalizes its rates over
  // that one window, and still closes the trace with its footer.
  const std::atomic<bool> stop{true};
  ClusterConfig config = shard_config(24);
  config.scenario.crash(50.0, 3);
  config.stop = &stop;
  const ShardRun run = expect_shard_invariant(config, 7, "stop");
  EXPECT_EQ(run.report.duration_ms, config.check_interval_ms);
  EXPECT_GT(run.report.messages_sent, 0);
  EXPECT_EQ(run.report.disruptions, 1);
  const std::string footer = "\n{\"type\":\"end\",\"t\":100,";
  const std::size_t last_line = run.trace.rfind('\n', run.trace.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  EXPECT_EQ(run.trace.compare(last_line, footer.size(), footer), 0)
      << run.trace.substr(last_line);
}

TEST(ShardDeterminism, DeadlinesPastTwoToThe31TicksNeverFire) {
  // A 3e9 ms grace on a 1 ms grid puts every seeded pair's deadline
  // past tick 2^31, and the detectors' own deadlines (the fixed 500 ms
  // timeout, Phi's 1 s fallback) fall past the run's 200 ticks too. The
  // engine parks them all at the last tick + 1, where none fires: node
  // 1's crash goes undetected at every shard count, with the pinned
  // report and trace.
  const struct {
    rt::DetectorKind kind;
    const char* report;
    const char* trace;
  } kPinned[] = {
      {rt::DetectorKind::kFixed,
       "2|2|gossip(f=3)|fixed|200|3|0|0|4|14|7.5|10|35|208|4|0|nan|nan|1|0|"
       "0|0|nan|1|1|0|0|0|28|0",
       "42cc31ce1fc86788"},
      {rt::DetectorKind::kPhi,
       "2|2|gossip(f=3)|phi|200|3|0|0|4|14|7.5|10|35|208|4|0|nan|nan|1|0|0|"
       "0|nan|1|1|0|0|0|28|0",
       "8e36a7e6de479d5b"},
  };
  for (const auto& pin : kPinned) {
    ClusterConfig config;
    config.n = 2;
    config.detector.kind = pin.kind;
    config.check_interval_ms = 1.0;
    config.bootstrap_grace_ms = 3e9;
    config.duration_ms = 200.0;
    config.scenario.crash(100.0, 1);
    const ShardRun run = expect_shard_invariant(
        config, 7, rt::detector_kind_name(pin.kind).c_str());
    EXPECT_EQ(run.report.missed_detections, 1);
    EXPECT_EQ(run.report.suspicion_raises, 0);
    EXPECT_EQ(report_fingerprint(run.report), pin.report);
    EXPECT_EQ(testutil::fnv1a_hex(run.trace), pin.trace);
  }
}

TEST(ShardDeterminism, HierarchicalLeaderFailoverIsShardCountInvariant) {
  // "leader" records come from the topology inside each shard's pumps
  // and are merged like every other record. Node 0, a cluster-0 leader,
  // crashes; then a partition splits the clusters and heals. Some acting
  // leader must flip at or after the crash.
  ClusterConfig config = shard_config(40);
  config.topology.kind = TopologyKind::kHierarchical;
  constexpr double kCrashAt = 3'000.0;
  std::vector<NodeId> left;
  std::vector<NodeId> right;
  for (NodeId i = 0; i < 40; ++i) (i < 20 ? left : right).push_back(i);
  config.scenario.crash(kCrashAt, 0)
      .partition(5'000.0, {left, right})
      .heal(8'000.0);
  const ShardRun run = expect_shard_invariant(config, 7, "leader");
  int after_crash = 0;
  std::istringstream lines(run.trace);
  std::string line;
  const std::string prefix = "{\"type\":\"leader\",\"t\":";
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    if (std::stod(line.substr(prefix.size())) >= kCrashAt) ++after_crash;
  }
  EXPECT_GT(after_crash, 0);
}

TEST(ShardDeterminism, OffGridTailIsShardCountInvariant) {
  // 12,050 ms is off the 100 ms check grid, so the run ends with a tail
  // window that no check tick closes. Its pumps, a crash and a recover
  // run there, and what they stage is merged after the shards joined.
  ClusterConfig config = shard_config(40);
  config.detector.kind = rt::DetectorKind::kPhi;
  config.heartbeat_interval_ms = 73.0;
  config.duration_ms = 12'050.0;
  config.scenario.crash(12'020.0, 5).recover(12'030.0, 5);
  const ShardRun run = expect_shard_invariant(config, 7, "tail");
  for (const char* fault : {"{\"type\":\"fault\",\"t\":12020,",
                            "{\"type\":\"fault\",\"t\":12030,"}) {
    EXPECT_NE(run.trace.find(fault), std::string::npos) << fault;
  }
}

TEST(ShardDeterminism, ExclusionIsShardCountInvariant) {
  // The group on 48 nodes: a fixed timeout tight enough that pre-GST
  // delay spikes get live members excluded (5 of them), and one real
  // crash after GST. Proposals are staged per shard and merged by the
  // coordinator step; the fences, their `exclude` records and the
  // scoring must not depend on the shard count.
  ClusterConfig config = shard_config(48);
  config.topology.kind = TopologyKind::kAllToAll;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 400.0;
  config.network.gst_ms = 3'000.0;
  config.network.pre_gst_extra_ms = 350.0;
  config.network.pre_gst_chaos_prob = 0.3;
  config.exclusion = true;
  config.scenario.crash(8'000.0, 31);
  const ShardRun run = expect_shard_invariant(config, 7, "exclusion");
  EXPECT_GT(run.report.false_exclusions, 0);
  EXPECT_GT(run.report.exclusion_latency_ms.count(), 0);
  EXPECT_GT(run.report.mistakes, 0);
  EXPECT_TRUE(run.report.excluded_down);
  std::size_t excludes = 0;
  for (std::size_t at = run.trace.find("\"kind\":\"exclude\"");
       at != std::string::npos;
       at = run.trace.find("\"kind\":\"exclude\"", at + 1)) {
    ++excludes;
  }
  EXPECT_EQ(excludes, run.report.excluded.size());
}

TEST(ShardDeterminism, ShardCountBeyondNodesClamps) {
  ClusterConfig config = shard_config(4);
  config.duration_ms = 3'000.0;
  config.shards = 64;  // clamped to the node count internally
  const ClusterReport report = run_cluster(config, 7);
  EXPECT_GT(report.messages_sent, 0);
}

}  // namespace
}  // namespace rfd::cluster
