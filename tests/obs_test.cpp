// Observability-layer tests: JSON escaping, the writer's drain buffer and
// its accounting of failed writes, byte-identical traces across
// fixed-seed runs, and the offline QoS re-derivation check - detection
// percentiles recomputed from the trace must match the engine's live
// ClusterReport exactly - mistake lengths included, on hand-computed
// cases and on a run with the group membership fencing nodes - and a soak
// trace must replay to the soak's own verdict counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/scenario.hpp"
#include "obs/config.hpp"
#include "obs/record.hpp"
#include "obs/replay.hpp"
#include "obs/trace_writer.hpp"
#include "scenario_test_util.hpp"
#include "transport/soak.hpp"

namespace rfd::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int count_lines_containing(const std::string& text, const std::string& what) {
  int count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(what) != std::string::npos) ++count;
  }
  return count;
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("gossip(f=3)"), "gossip(f=3)");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonLine, FixedFieldOrderAndNullForNonFinite) {
  const std::string line = JsonLine{}
                               .str("type", "x")
                               .integer("k", 42)
                               .num("v", 1.5)
                               .num("bad", std::nan(""))
                               .boolean("on", true)
                               .finish();
  EXPECT_EQ(line, "{\"type\":\"x\",\"k\":42,\"v\":1.5,\"bad\":null,"
                  "\"on\":true}");
}

TEST(TraceWriter, LosslessModeDrainsInsteadOfDropping) {
  const std::string path = "obs_test_lossless.jsonl";
  Config config;
  config.trace_path = path;
  {
    TraceWriter writer(config);
    ASSERT_TRUE(writer.ok());
    Record r;
    r.type = RecordType::kHbSend;
    for (int i = 0; i < 1000; ++i) writer.emit(r);
    writer.close();
    EXPECT_EQ(writer.dropped(), 0);
    EXPECT_EQ(writer.written_records(), 1000);
  }
  const std::string text = read_file(path);
  EXPECT_EQ(count_lines_containing(text, "\"type\":\"hb_send\""), 1000);
  EXPECT_EQ(count_lines_containing(text, "\"type\":\"lost\""), 0);
  std::remove(path.c_str());
}

TEST(TraceWriter, LineLongerThanTheBufferStaysWholeAndInOrder) {
  const std::string path = "obs_test_long_line.jsonl";
  Config config;
  config.trace_path = path;
  const std::string long_line = JsonLine{}
                                    .str("type", "x")
                                    .str("pad", std::string(200'000, 'a'))
                                    .finish();
  {
    TraceWriter writer(config);
    ASSERT_TRUE(writer.ok());
    Record r;
    r.type = RecordType::kHbSend;
    writer.emit(r);
    writer.write_line(long_line);
    writer.emit(r);
    writer.close();
    EXPECT_EQ(writer.written_records(), 3);
    EXPECT_EQ(writer.dropped(), 0);
  }
  const std::string send =
      "{\"type\":\"hb_send\",\"t\":0,\"node\":-1,\"peer\":-1,\"entries\":0}\n";
  EXPECT_EQ(read_file(path), send + long_line + "\n" + send);
  std::remove(path.c_str());
}

cluster::ClusterConfig traced_config(const std::string& trace_path) {
  cluster::ClusterConfig config;
  config.n = 12;
  config.max_nodes = 13;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.digest_size = 12;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 300.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = 20'000.0;
  config.network.loss_prob = 0.02;
  std::vector<cluster::NodeId> left, right;
  for (int i = 0; i < 12; ++i) (i < 6 ? left : right).push_back(i);
  config.scenario.crash(3'000.0, 2)
      .partition(6'000.0, {left, right})
      .heal(8'000.0)
      .recover(10'000.0, 2)
      .delay_storm(11'000.0, 12'000.0, 600.0, 0.5)
      .join(13'000.0, 12)
      .crash(15'000.0, 7)
      .leave(16'000.0, 9);
  config.obs.trace_path = trace_path;
  config.obs.snapshot_every_ticks = 25;
  return config;
}

TEST(Trace, FixedSeedRunsProduceByteIdenticalTraces) {
  const std::string path_a = "obs_test_run_a.jsonl";
  const std::string path_b = "obs_test_run_b.jsonl";
  cluster::run_cluster(traced_config(path_a), 0x0b5);
  cluster::run_cluster(traced_config(path_b), 0x0b5);
  const std::string a = read_file(path_a);
  const std::string b = read_file(path_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The stream has the expected structure: one header, one terminal end
  // record, and the scripted faults (all effective in this scenario).
  EXPECT_EQ(count_lines_containing(a, "{\"type\":\"run\","), 1);
  EXPECT_EQ(count_lines_containing(a, "{\"type\":\"end\","), 1);
  EXPECT_EQ(count_lines_containing(a, "{\"type\":\"fault\","), 9);
  EXPECT_GT(count_lines_containing(a, "{\"type\":\"snap\","), 0);
  EXPECT_GT(count_lines_containing(a, "{\"type\":\"hb_send\","), 0);
  EXPECT_GT(count_lines_containing(a, "{\"type\":\"hb_recv\","), 0);
  EXPECT_GT(count_lines_containing(a, "{\"type\":\"drop\","), 0);
  EXPECT_GT(count_lines_containing(a, "{\"type\":\"suspect\","), 0);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Trace, FailedWritesCountAsDroppedNotWritten) {
  // A device that refuses every write: each record and line of the run
  // is lost, and the report says so instead of calling them written.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full cannot be opened";
  std::fclose(probe);
  const std::string path = "obs_test_full_reference.jsonl";
  const cluster::ClusterReport regular =
      cluster::run_cluster(traced_config(path), 0x0b5);
  std::remove(path.c_str());
  ASSERT_GT(regular.trace_records, 0);
  ASSERT_EQ(regular.trace_dropped, 0);

  const cluster::ClusterReport full =
      cluster::run_cluster(traced_config("/dev/full"), 0x0b5);
  EXPECT_EQ(full.trace_records, 0);
  EXPECT_GE(full.trace_dropped, regular.trace_records);
  // The run itself is untouched by its trace's fate.
  EXPECT_EQ(full.events_executed, regular.events_executed);
  EXPECT_EQ(full.false_suspicions, regular.false_suspicions);
  EXPECT_EQ(full.detection_latency_ms.count(),
            regular.detection_latency_ms.count());
}

TEST(Trace, OfflineReplayMatchesLiveClusterReport) {
  const std::string path = "obs_test_replay.jsonl";
  const cluster::ClusterReport live =
      cluster::run_cluster(traced_config(path), 0x0b5);
  ASSERT_EQ(live.trace_dropped, 0);

  const ReplayQos replayed = replay_qos(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.lost_records, 0);
  EXPECT_EQ(replayed.n, live.n);
  EXPECT_EQ(replayed.max_nodes, live.max_nodes);

  // Bit-for-bit: the replay adds samples in the same (victim, observer)
  // order as the engine's finalize, so even the Welford mean matches.
  ASSERT_GT(live.detection_latency_ms.count(), 0);
  EXPECT_EQ(replayed.detection_latency_ms.count(),
            live.detection_latency_ms.count());
  EXPECT_EQ(replayed.detection_latency_ms.mean(),
            live.detection_latency_ms.mean());
  EXPECT_EQ(replayed.detection_latency_ms.percentile(0.5),
            live.detection_latency_ms.percentile(0.5));
  EXPECT_EQ(replayed.detection_latency_ms.percentile(0.99),
            live.detection_latency_ms.percentile(0.99));
  EXPECT_EQ(replayed.false_suspicions, live.false_suspicions);
  EXPECT_EQ(replayed.suspicion_raises, live.suspicion_raises);
  EXPECT_EQ(replayed.suspicion_clears, live.suspicion_clears);
  ASSERT_GT(live.mistakes, 0);
  EXPECT_EQ(replayed.mistakes, live.mistakes);
  EXPECT_EQ(replayed.mistake_ms, live.mistake_ms);
  std::remove(path.c_str());
}

/// Replays the trace at `path` (and removes it) and requires every
/// re-derivable field to match `live`.
void expect_replay_matches(const cluster::ClusterReport& live,
                           const std::string& path) {
  ASSERT_EQ(live.trace_dropped, 0);
  const ReplayQos replayed = replay_qos(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.detection_latency_ms.count(),
            live.detection_latency_ms.count());
  EXPECT_EQ(replayed.detection_latency_ms.sum(),
            live.detection_latency_ms.sum());
  EXPECT_EQ(replayed.false_suspicions, live.false_suspicions);
  EXPECT_EQ(replayed.suspicion_raises, live.suspicion_raises);
  EXPECT_EQ(replayed.suspicion_clears, live.suspicion_clears);
  EXPECT_EQ(replayed.mistakes, live.mistakes);
  EXPECT_EQ(replayed.mistake_ms, live.mistake_ms);
}

TEST(Trace, OfflineReplayMatchesLiveExclusionRun) {
  // The group fences every member it excludes with an `exclude` fault
  // record, one per exclusion; the replay reads it as the crash it is.
  cluster::ClusterConfig config;
  config.n = 8;
  config.topology.kind = cluster::TopologyKind::kAllToAll;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 250.0;
  config.check_interval_ms = 50.0;
  config.duration_ms = 20'000.0;
  config.network.gst_ms = 8'000.0;
  config.network.pre_gst_extra_ms = 350.0;
  config.network.pre_gst_chaos_prob = 0.3;
  config.exclusion = true;
  config.scenario.crash(12'000.0, 7);
  const std::string path = "obs_test_exclusion.jsonl";
  config.obs.trace_path = path;
  const cluster::ClusterReport live = cluster::run_cluster(config, 0x0b5);
  ASSERT_GT(live.false_exclusions, 0);
  ASSERT_GT(live.mistakes, 0);
  EXPECT_TRUE(live.excluded_down);
  EXPECT_EQ(count_lines_containing(read_file(path), "\"kind\":\"exclude\""),
            static_cast<std::int64_t>(live.excluded.size()));
  expect_replay_matches(live, path);
}

/// Two nodes on a jitter-free network (every delay 1.5 ms) with a 250 ms
/// fixed timeout checked every 500 ms: a heartbeat gap raises a
/// suspicion at the first 500 ms tick past it.
cluster::ClusterConfig two_node_config(const std::string& trace_path) {
  cluster::ClusterConfig config;
  config.n = 2;
  config.topology.kind = cluster::TopologyKind::kAllToAll;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 250.0;
  config.check_interval_ms = 500.0;
  config.duration_ms = 5'000.0;
  config.network.jitter_sigma = 0.0;
  config.obs.trace_path = trace_path;
  return config;
}

TEST(Trace, FalseSuspicionOpenAtItsVictimsCrashBooksCrashMinusRaise) {
  // Node 1's link to node 0 goes down at 1000 ms: node 0 last hears it
  // before 1001.5 ms and falsely suspects it at the 1500 ms tick. Node 1
  // crashes at 3000 ms with the suspicion still open: one mistake of
  // exactly 3000 - 1500 ms.
  const std::string path = "obs_test_mistake_crash.jsonl";
  cluster::ClusterConfig config = two_node_config(path);
  config.scenario.link_down(1'000.0, {1}, {0}).crash(3'000.0, 1);
  const cluster::ClusterReport live = cluster::run_cluster(config, 3);
  EXPECT_EQ(live.false_suspicions, 1);
  EXPECT_EQ(live.mistakes, 1);
  EXPECT_EQ(live.mistake_ms, 1'500.0);
  expect_replay_matches(live, path);
}

TEST(Trace, SuspicionSpanningCrashAndRecoveryBooksFromTheRecovery) {
  // Node 1 crashes at 1000 ms and node 0 rightly suspects it at 1500 ms.
  // The suspicion turns into a mistake when node 1 restarts at 3000 ms
  // and ends at the 3500 ms tick, which observes its new heartbeats:
  // one mistake of 500 ms, none of the time it was down.
  const std::string path = "obs_test_mistake_recover.jsonl";
  cluster::ClusterConfig config = two_node_config(path);
  config.scenario.crash(1'000.0, 1).recover(3'000.0, 1);
  const cluster::ClusterReport live = cluster::run_cluster(config, 3);
  EXPECT_EQ(live.false_suspicions, 0);
  EXPECT_EQ(live.suspicion_clears, 1);
  EXPECT_EQ(live.mistakes, 1);
  EXPECT_EQ(live.mistake_ms, 500.0);
  expect_replay_matches(live, path);
}

TEST(Trace, SoakTraceReplaysToTheSoakReport) {
  const cluster::ScenarioDoc doc =
      cluster::testutil::load_doc("crash_recovery_wave.scn");
  transport::SoakConfig config;
  config.n = doc.n;
  config.max_nodes = doc.max_nodes;
  config.duration_ms = doc.duration_ms;
  config.scenario = doc.scenario;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;
  config.topology.digest_size = 32;
  config.seed = 7;
  const std::string path = "obs_test_soak.jsonl";
  config.obs.trace_path = path;
  transport::SoakReport live;
  std::string error;
  ASSERT_TRUE(transport::run_soak(config, live, error)) << error;
  ASSERT_GT(live.raises, 0);
  ASSERT_GT(live.false_suspicions, 0);

  const ReplayQos replayed = replay_qos(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.lost_records, 0);
  EXPECT_EQ(replayed.suspicion_raises, live.raises);
  EXPECT_EQ(replayed.suspicion_clears, live.clears);
  EXPECT_EQ(replayed.false_suspicions, live.false_suspicions);
  std::remove(path.c_str());
}

TEST(Trace, UdpSoakTraceReplaysToTheSoakReport) {
  // The same oracle over real loopback sockets behind injected loss: the
  // live and the replayed verdict counts come from one engine and one
  // ledger whichever backend carries the datagrams.
  transport::SoakConfig config;
  config.n = 16;
  config.duration_ms = 10'000.0;
  config.scenario.crash(4'000.0, 5);
  config.seed = 7;
  config.backend = transport::SoakBackend::kUdp;
  config.flaky = true;
  config.flaky_params.network.loss_prob = 0.05;
  config.time_scale = 0.0;
  config.udp.base_port = 41700;  // clear of the other tests' ports
  const std::string path = "obs_test_udp_soak.jsonl";
  config.obs.trace_path = path;
  transport::SoakReport live;
  std::string error;
  ASSERT_TRUE(transport::run_soak(config, live, error)) << error;
  ASSERT_GT(live.raises, 0);

  const ReplayQos replayed = replay_qos(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.lost_records, 0);
  EXPECT_EQ(replayed.suspicion_raises, live.raises);
  EXPECT_EQ(replayed.suspicion_clears, live.clears);
  EXPECT_EQ(replayed.false_suspicions, live.false_suspicions);
  std::remove(path.c_str());
}

/// The number after `"key":` in one JSONL line.
double json_number(const std::string& line, const std::string& key) {
  const std::string field = "\"" + key + "\":";
  const std::size_t at = line.find(field);
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  return at == std::string::npos ? std::nan("")
                                 : std::stod(line.substr(at + field.size()));
}

TEST(Trace, SoakLeaderRecordsCarryTheirTickTime) {
  // A hierarchical soak stamps each "leader" record with the pump time of
  // the heartbeat round that saw the flip. Node 0 leads cluster 0 until
  // it crashes at 2000 ms; node 2 takes over after that.
  transport::SoakConfig config;
  config.n = 16;
  config.topology.kind = cluster::TopologyKind::kHierarchical;
  config.seed = 7;
  config.duration_ms = 6'000.0;
  config.scenario.crash(2'000.0, 0);
  const std::string path = "obs_test_soak_leader.jsonl";
  config.obs.trace_path = path;
  transport::SoakReport report;
  std::string error;
  ASSERT_TRUE(transport::run_soak(config, report, error)) << error;

  const std::string text = read_file(path);
  std::set<std::pair<double, double>> pumps;  // (node, t) of each hb_send
  std::istringstream sends(text);
  std::string line;
  while (std::getline(sends, line)) {
    if (line.rfind("{\"type\":\"hb_send\",", 0) != 0) continue;
    pumps.insert({json_number(line, "node"), json_number(line, "t")});
  }
  std::istringstream in(text);
  int leaders = 0;
  bool takeover = false;
  while (std::getline(in, line)) {
    if (line.rfind("{\"type\":\"leader\",", 0) != 0) continue;
    ++leaders;
    const double t = json_number(line, "t");
    EXPECT_GT(t, 0.0) << line;
    EXPECT_EQ(pumps.count({json_number(line, "node"), t}), 1u) << line;
    if (json_number(line, "node") == 2.0 &&
        json_number(line, "acting") == 1.0) {
      takeover = true;
      EXPECT_GE(t, 2'000.0) << line;
    }
  }
  EXPECT_GT(leaders, 0);
  EXPECT_TRUE(takeover);
  std::remove(path.c_str());
}

TEST(Trace, DisabledTraceLeavesReportEmpty) {
  cluster::ClusterConfig config = traced_config("");
  config.obs.trace_path.clear();
  const cluster::ClusterReport r = cluster::run_cluster(config, 0x0b5);
  EXPECT_EQ(r.trace_records, 0);
  EXPECT_TRUE(r.profile.empty());
  EXPECT_GT(r.detection_latency_ms.count(), 0);
}

TEST(Trace, ProfiledRunReportsPhaseRollups) {
  const std::string path = "obs_test_profile.jsonl";
  cluster::ClusterConfig config = traced_config(path);
  config.obs.profile = true;
  const cluster::ClusterReport r = cluster::run_cluster(config, 0x0b5);
  ASSERT_FALSE(r.profile.empty());
  bool saw_dispatch = false;
  for (const auto& stat : r.profile) {
    EXPECT_GT(stat.calls, 0);
    EXPECT_GE(stat.calls, stat.sampled);
    if (stat.phase == "dispatch") saw_dispatch = true;
  }
  EXPECT_TRUE(saw_dispatch);
  const std::string text = read_file(path);
  EXPECT_GT(count_lines_containing(text, "{\"type\":\"profile\","), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rfd::obs
