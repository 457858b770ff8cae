// Checkpoint format and soak crash-resume tests: files round-trip,
// corruption in any byte is caught by the CRC trailer, foreign configs
// and older engine states are refused, and a killed-and-resumed
// sim-backend soak produces the exact outcome an uninterrupted run does,
// record for record on every topology; a UDP soak's counters carry on
// across a resume. A payload that lies (crafted or fuzzed, then
// re-sealed under a valid CRC) is refused or resumes; it never aborts
// the run. The soak's outcome and trace bytes are also pinned in
// absolute terms, per scenario file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/scenario.hpp"
#include "common/rng.hpp"
#include "common/shutdown.hpp"
#include "scenario_test_util.hpp"
#include "transport/checkpoint.hpp"
#include "transport/soak.hpp"

namespace rfd::transport {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rfd_" + name + "_" +
         std::to_string(::getpid());
}

CheckpointData sample_data() {
  CheckpointData data;
  data.config_fingerprint = 0x1122334455667788ull;
  data.tick = 1234;
  data.now_ms = 123400.0;
  for (int i = 0; i < 257; ++i) {
    data.payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  return data;
}

TEST(CheckpointFile, RoundTripsAllFields) {
  const std::string path = temp_path("roundtrip");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  CheckpointData out;
  ASSERT_TRUE(read_checkpoint(path, in.config_fingerprint, out, error))
      << error;
  EXPECT_EQ(out.config_fingerprint, in.config_fingerprint);
  EXPECT_EQ(out.tick, in.tick);
  EXPECT_DOUBLE_EQ(out.now_ms, in.now_ms);
  EXPECT_EQ(out.payload, in.payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsCorruption) {
  const std::string path = temp_path("corrupt");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  // Flip one payload byte in place; the CRC trailer must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 60, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, 60, SEEK_SET);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);

  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint, out, error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsTruncation) {
  const std::string path = temp_path("truncate");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  // Drop the tail (as a torn write would); re-write the file shorter.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes(4096);
  const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  ASSERT_GT(n, 100u);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, n - 40, f);
  std::fclose(f);

  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint, out, error));
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsHeaderStub) {
  const std::string path = temp_path("stub");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("RFDC", 1, 4, f);
  std::fclose(f);
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(read_checkpoint(path, 0, out, error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsForeignFingerprint) {
  const std::string path = temp_path("foreign");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;
  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint + 1, out, error));
  EXPECT_NE(error.find("different configuration"), std::string::npos)
      << error;
  // Fingerprint 0 = caller opts out of the check.
  EXPECT_TRUE(read_checkpoint(path, 0, out, error)) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileReportsError) {
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(
      read_checkpoint(temp_path("never_written"), 0, out, error));
  EXPECT_FALSE(error.empty());
}

// --- soak resume -----------------------------------------------------

SoakConfig base_soak_config() {
  SoakConfig config;
  config.n = 10;
  config.seed = 20020623;
  config.tick_ms = 100.0;
  config.duration_ms = 24'000.0;
  config.network.loss_prob = 0.03;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 1'000.0;
  config.scenario.crash(4'000.0, 2)
      .partition(8'000.0, {{0, 1, 3, 4}, {5, 6, 7, 8, 9}})
      .heal(12'000.0)
      .recover(14'000.0, 2)
      .crash(18'000.0, 7);
  return config;
}

/// base_soak_config() behind a duplicating injection layer, with Phi
/// detectors: its checkpoints carry detector windows and a
/// FlakyTransport's state nested around the sim backend's.
SoakConfig flaky_soak_config() {
  SoakConfig config = base_soak_config();
  config.detector.kind = rt::DetectorKind::kPhi;
  config.flaky = true;
  config.flaky_params.network.loss_prob = 0.02;
  config.flaky_params.dup_prob = 0.05;
  return config;
}

TEST(SoakResume, MatchesUninterruptedRun) {
  for (const SoakConfig& base : {base_soak_config(), flaky_soak_config()}) {
    SCOPED_TRACE(base.flaky ? "flaky" : "sim");
    reset_shutdown();
    SoakConfig full = base;
    full.obs.trace_path = temp_path("resume_full_trace");
    SoakReport uninterrupted;
    std::string error;
    ASSERT_TRUE(run_soak(full, uninterrupted, error)) << error;
    // The timeline must actually exercise detection for this test to
    // mean anything.
    ASSERT_GT(uninterrupted.raises, 0);
    ASSERT_GT(uninterrupted.detection.count(), 0);

    const std::string ckpt = temp_path("resume");
    SoakConfig first_leg = base;
    first_leg.duration_ms = 11'000.0;  // killed mid-partition
    first_leg.checkpoint_path = ckpt;
    first_leg.checkpoint_every_ms = 3'000.0;
    SoakReport half;
    ASSERT_TRUE(run_soak(first_leg, half, error)) << error;
    ASSERT_GT(half.checkpoints_written, 0);

    CheckpointData checkpoint;
    ASSERT_TRUE(read_checkpoint(ckpt, soak_config_fingerprint(base),
                                checkpoint, error))
        << error;

    SoakConfig second_leg = base;
    second_leg.checkpoint_path = ckpt;
    second_leg.resume = true;
    second_leg.obs.trace_path = temp_path("resume_tail_trace");
    SoakReport resumed;
    ASSERT_TRUE(run_soak(second_leg, resumed, error)) << error;
    EXPECT_TRUE(resumed.resumed);

    // Record for record: what the resumed leg wrote is what the
    // uninterrupted run wrote after the checkpoint's time.
    using cluster::testutil::protocol_records;
    using cluster::testutil::read_file;
    const std::vector<std::string> tail = protocol_records(
        read_file(second_leg.obs.trace_path), checkpoint.now_ms);
    ASSERT_GT(tail.size(), 1000u);
    EXPECT_EQ(tail, protocol_records(read_file(full.obs.trace_path),
                                     checkpoint.now_ms));
    std::remove(full.obs.trace_path.c_str());
    std::remove(second_leg.obs.trace_path.c_str());

    EXPECT_EQ(resumed.outcome_fingerprint, uninterrupted.outcome_fingerprint);
    EXPECT_EQ(resumed.raises, uninterrupted.raises);
    EXPECT_EQ(resumed.clears, uninterrupted.clears);
    EXPECT_EQ(resumed.false_suspicions, uninterrupted.false_suspicions);
    EXPECT_EQ(resumed.missed, uninterrupted.missed);
    EXPECT_EQ(resumed.transport.sent, uninterrupted.transport.sent);
    EXPECT_EQ(resumed.transport.delivered, uninterrupted.transport.delivered);
    EXPECT_EQ(resumed.transport.dropped, uninterrupted.transport.dropped);
    EXPECT_EQ(resumed.detection.count(), uninterrupted.detection.count());
    EXPECT_EQ(resumed.final_agreement, uninterrupted.final_agreement);
    std::remove(ckpt.c_str());
  }
}

/// n=16 for 16 s under 3% loss on one topology and detector: a crash, a
/// partition, a heal, a recover and a second crash.
SoakConfig matrix_config(cluster::TopologyKind topology,
                         rt::DetectorKind detector, bool flaky) {
  SoakConfig config;
  config.n = 16;
  config.seed = 20020623;
  config.duration_ms = 16'000.0;
  config.network.loss_prob = 0.03;
  config.topology.kind = topology;
  config.detector.kind = detector;
  config.scenario.crash(2'000.0, 5)
      .partition(5'000.0, {{0, 1, 2, 3, 4, 5, 6, 7},
                           {8, 9, 10, 11, 12, 13, 14, 15}})
      .heal(9'000.0)
      .recover(10'000.0, 5)
      .crash(12'500.0, 12);
  if (flaky) {
    config.flaky = true;
    config.flaky_params.network.loss_prob = 0.02;
    config.flaky_params.dup_prob = 0.05;
  }
  return config;
}

TEST(SoakResume, EveryTopologyResumesRecordForRecord) {
  // Each cell runs uninterrupted, then as four legs that each resume
  // from the last one's final checkpoint, at 3000, 7000 and 11000 ms.
  // Every protocol record a resumed leg writes is the one the
  // uninterrupted run wrote. The first leg runs untraced, so no state
  // may depend on tracing. Hierarchical fabrics keep acting-leader
  // state that their leader records depend on.
  reset_shutdown();
  using cluster::TopologyKind;
  using cluster::testutil::protocol_records;
  using cluster::testutil::read_file;
  const std::string ckpt = temp_path("matrix");
  const std::string trace = temp_path("matrix_trace");
  for (const bool flaky : {false, true}) {
    for (const TopologyKind topology :
         {TopologyKind::kAllToAll, TopologyKind::kRing, TopologyKind::kGossip,
          TopologyKind::kHierarchical}) {
      for (const rt::DetectorKind detector :
           {rt::DetectorKind::kFixed, rt::DetectorKind::kChen,
            rt::DetectorKind::kPhi}) {
        const SoakConfig base = matrix_config(topology, detector, flaky);
        SCOPED_TRACE(cluster::topology_kind_name(topology) + " " +
                     rt::detector_kind_name(detector) +
                     (flaky ? " flaky" : " sim"));
        SoakConfig full = base;
        full.obs.trace_path = trace;
        SoakReport report;
        std::string error;
        ASSERT_TRUE(run_soak(full, report, error)) << error;
        const std::string uninterrupted = read_file(trace);
        double from = 0.0;
        for (const double until : {3'000.0, 7'000.0, 11'000.0, 16'000.0}) {
          SoakConfig leg = base;
          leg.duration_ms = until;
          leg.checkpoint_path = ckpt;
          leg.resume = from > 0.0;
          if (leg.resume) leg.obs.trace_path = trace;
          ASSERT_TRUE(run_soak(leg, report, error)) << error;
          if (leg.resume) {
            // The uninterrupted run's records in (from, until]: the
            // trace is in time order, so those after `until` are a
            // suffix of those after `from`.
            std::vector<std::string> want =
                protocol_records(uninterrupted, from);
            want.resize(want.size() -
                        protocol_records(uninterrupted, until).size());
            const std::vector<std::string> got =
                protocol_records(read_file(trace));
            ASSERT_GT(got.size(), 100u) << "leg from " << from;
            EXPECT_EQ(got, want) << "leg from " << from;
          }
          from = until;
        }
      }
    }
  }
  std::remove(ckpt.c_str());
  std::remove(trace.c_str());
}

TEST(SoakResume, ResumesBeforeTheGraceTick) {
  // A fresh run's seeded pairs hold no wheel keys: each shard scans them
  // at the grace tick (1400 ms here, one tick before the 1500 ms grace
  // deadline). A run restored at 1000 ms rebuilds a key for every armed
  // pair instead. Both must write the same records on every detector,
  // through a crash before the grace tick and one after it. The fixed
  // timeout outlasts the grace window, so a first advance never arms
  // its pair earlier: every fixed pair waits for that one tick.
  reset_shutdown();
  using cluster::testutil::protocol_records;
  using cluster::testutil::read_file;
  const std::string ckpt = temp_path("before_grace");
  const std::string trace = temp_path("before_grace_trace");
  for (const rt::DetectorKind detector :
       {rt::DetectorKind::kFixed, rt::DetectorKind::kChen,
        rt::DetectorKind::kPhi}) {
    SCOPED_TRACE(rt::detector_kind_name(detector));
    SoakConfig base;
    base.n = 10;
    base.seed = 20020623;
    base.tick_ms = 100.0;
    base.duration_ms = 6'000.0;
    base.bootstrap_grace_ms = 1'500.0;
    base.network.loss_prob = 0.03;
    base.detector.kind = detector;
    base.detector.fixed.timeout_ms = 2'000.0;
    base.scenario.crash(500.0, 2).crash(3'000.0, 7);
    SoakConfig full = base;
    full.obs.trace_path = trace;
    SoakReport report;
    std::string error;
    ASSERT_TRUE(run_soak(full, report, error)) << error;
    ASSERT_GT(report.raises, 0);
    const std::vector<std::string> want =
        protocol_records(read_file(trace), 1'000.0);

    SoakConfig first = base;
    first.duration_ms = 1'000.0;
    first.checkpoint_path = ckpt;
    ASSERT_TRUE(run_soak(first, report, error)) << error;
    SoakConfig second = base;
    second.checkpoint_path = ckpt;
    second.resume = true;
    second.obs.trace_path = trace;
    ASSERT_TRUE(run_soak(second, report, error)) << error;
    const std::vector<std::string> got = protocol_records(read_file(trace));
    ASSERT_GT(got.size(), 1000u);
    EXPECT_EQ(got, want);
  }
  std::remove(ckpt.c_str());
  std::remove(trace.c_str());
}

TEST(SoakResume, UdpCountersCarryOn) {
  // Leg 1 checkpoints at 3000 ms and leg 2 resumes to 6000 ms, over
  // real loopback sockets behind 5% injected loss: the counters carry
  // on from the checkpoint instead of restarting at zero.
  reset_shutdown();
  SoakConfig config;
  config.n = 16;
  config.seed = 7;
  config.backend = SoakBackend::kUdp;
  config.flaky = true;
  config.flaky_params.network.loss_prob = 0.05;
  config.time_scale = 0.0;
  config.udp.base_port = 41800;  // 41800-41815: clear of the other UDP users
  config.duration_ms = 3'000.0;
  config.checkpoint_path = temp_path("udp_resume");
  config.checkpoint_every_ms = 1'000.0;
  SoakReport leg1;
  std::string error;
  ASSERT_TRUE(run_soak(config, leg1, error)) << error;
  config.duration_ms = 6'000.0;
  config.resume = true;
  SoakReport leg2;
  ASSERT_TRUE(run_soak(config, leg2, error)) << error;
  std::remove(config.checkpoint_path.c_str());
  EXPECT_TRUE(leg2.resumed);
  EXPECT_GT(leg2.transport.sent, leg1.transport.sent);
  EXPECT_GE(leg2.transport.delivered, leg1.transport.delivered);
  // Counted over both legs, most of what was offered arrived.
  EXPECT_GT(leg2.transport.delivered, leg2.transport.sent / 2);
}

TEST(SoakResume, RefusesForeignConfig) {
  reset_shutdown();
  const std::string ckpt = temp_path("foreign_cfg");
  SoakConfig config = base_soak_config();
  config.duration_ms = 3'000.0;
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 1'000.0;
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;

  SoakConfig other = base_soak_config();
  other.seed = config.seed + 1;  // any run-defining change
  other.checkpoint_path = ckpt;
  other.resume = true;
  SoakReport resumed;
  EXPECT_FALSE(run_soak(other, resumed, error));
  EXPECT_NE(error.find("different configuration"), std::string::npos)
      << error;
  std::remove(ckpt.c_str());
}

TEST(SoakResume, ResumeWithoutCheckpointFails) {
  reset_shutdown();
  SoakConfig config = base_soak_config();
  config.checkpoint_path = temp_path("missing_ckpt");
  config.resume = true;
  SoakReport report;
  std::string error;
  EXPECT_FALSE(run_soak(config, report, error));
  EXPECT_FALSE(error.empty());
}

TEST(SoakShutdown, StopsAtNextTickAndStillCheckpoints) {
  reset_shutdown();
  const std::string ckpt = temp_path("sig_ckpt");
  SoakConfig config = base_soak_config();
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 5'000.0;
  // Flag already set: the engine's first window always runs, and the run
  // ends - and checkpoints - at its boundary.
  request_shutdown();
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;
  reset_shutdown();
  EXPECT_TRUE(report.stopped_by_signal);
  EXPECT_EQ(report.ticks_run, 1);
  EXPECT_EQ(report.checkpoints_written, 1);

  // A shutdown arriving mid-run leaves a resumable final checkpoint.
  SoakReport fresh;
  SoakConfig first = base_soak_config();
  first.duration_ms = 6'000.0;
  first.checkpoint_path = ckpt;
  first.checkpoint_every_ms = 100'000.0;  // only the exit snapshot
  ASSERT_TRUE(run_soak(first, fresh, error)) << error;
  EXPECT_EQ(fresh.checkpoints_written, 1);
  SoakConfig second = base_soak_config();
  second.checkpoint_path = ckpt;
  second.resume = true;
  SoakReport resumed;
  ASSERT_TRUE(run_soak(second, resumed, error)) << error;
  EXPECT_TRUE(resumed.resumed);
  std::remove(ckpt.c_str());
}

// --- payloads that lie ----------------------------------------------

/// Payload fields are little-endian (common/bytes.hpp).
std::uint64_t read_u64(const std::vector<std::uint8_t>& bytes,
                       std::size_t offset) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = value << 8 | bytes[offset + i];
  return value;
}

void patch(std::vector<std::uint8_t>& bytes, std::size_t offset,
           std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

TEST(SoakResume, RefusesAnOwnCounterPast32Bits) {
  reset_shutdown();
  const std::string ckpt = temp_path("own_counter");
  SoakConfig config = base_soak_config();
  config.duration_ms = 3'000.0;
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 100'000.0;  // only the exit snapshot
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;
  CheckpointData data;
  ASSERT_TRUE(read_checkpoint(ckpt, soak_config_fingerprint(config), data,
                              error))
      << error;
  // Node 0's own counter follows the engine state's magic, n, max_nodes
  // and tick, node 0's length, id, max_nodes, membership version and
  // active flag; it has advanced once per tick. Heartbeats never take it
  // past INT32_MAX.
  constexpr std::size_t kOwnCounter = 41;
  ASSERT_EQ(read_u64(data.payload, kOwnCounter), 30u);
  patch(data.payload, kOwnCounter, std::uint64_t{1} << 32, 8);
  ASSERT_TRUE(write_checkpoint(ckpt, data, error)) << error;

  SoakConfig resume = base_soak_config();
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  SoakReport resumed;
  EXPECT_FALSE(run_soak(resume, resumed, error));
  EXPECT_EQ(error, "checkpoint node state is inconsistent");
  std::remove(ckpt.c_str());
}

TEST(SoakResume, RefusesAnOlderEngineState) {
  // A real checkpoint whose engine state leads with the magic of the
  // format before this one ("ENG2"), re-sealed under a valid CRC, is
  // refused rather than misread.
  reset_shutdown();
  const std::string ckpt = temp_path("old_magic");
  SoakConfig config = base_soak_config();
  config.duration_ms = 3'000.0;
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 100'000.0;  // only the exit snapshot
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;
  CheckpointData data;
  ASSERT_TRUE(read_checkpoint(ckpt, soak_config_fingerprint(config), data,
                              error))
      << error;
  ASSERT_EQ(read_u64(data.payload, 0) & 0xffffffffu, 0x33474e45u);  // ENG3
  patch(data.payload, 0, 0x32474e45u, 4);
  ASSERT_TRUE(write_checkpoint(ckpt, data, error)) << error;

  SoakConfig resume = base_soak_config();
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  SoakReport resumed;
  EXPECT_FALSE(run_soak(resume, resumed, error));
  EXPECT_NE(error.find("not an engine state"), std::string::npos) << error;
  std::remove(ckpt.c_str());
}

TEST(NodeCheckpoint, OwnCounterRestoresUpToInt32Max) {
  const cluster::NodeParams params;
  cluster::ClusterNode node(0, 4, params);
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  // The own counter follows the id, max_nodes, membership version and
  // active flag.
  constexpr std::size_t kOwnCounter = 17;
  const std::int64_t int32_max = std::numeric_limits<std::int32_t>::max();
  const struct {
    std::int64_t counter;
    bool restores;
  } kCases[] = {
      {0, true}, {int32_max, true}, {int32_max + 1, false}, {-1, false}};
  for (const auto& c : kCases) {
    patch(bytes, kOwnCounter, static_cast<std::uint64_t>(c.counter), 8);
    cluster::ClusterNode restored(0, 4, params);
    std::size_t consumed = 0;
    EXPECT_EQ(restored.restore_state(bytes.data(), bytes.size(), consumed),
              c.restores)
        << c.counter;
    if (c.restores) {
      EXPECT_EQ(restored.own_counter(), c.counter);
    }
  }
}

TEST(NodeCheckpoint, RefusesStatesTheHotRingCannotHold) {
  // Node 0 of 4 has heard first counters from peers 1 and 2, so its hot
  // queue is [1, 2], each with the full piggyback budget.
  cluster::NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  cluster::ClusterNode node(0, 4, params);
  node.observe(1, 5, 10.0);
  node.observe(2, 3, 10.0);
  ASSERT_EQ(node.hot_queue_depth(), 2u);
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  // A kFixed node's layout: the 33-byte header, then per peer a 4-byte
  // counter, a 10-byte hot entry (timestamp, flags, budget), an 8-byte
  // eval tick and a 17-byte record (two times, no-detector flag), then
  // the queue length and its ids.
  constexpr std::size_t kPeers = 4;
  constexpr std::size_t kHot = 33 + 4 * kPeers;
  constexpr std::size_t kEvalTicks = kHot + 10 * kPeers;
  constexpr std::size_t kQueue = kEvalTicks + (8 + 17) * kPeers;
  const auto budget = [](std::size_t peer) { return kHot + 10 * peer + 9; };
  ASSERT_EQ(bytes.size(), kQueue + 4 + 2 * 4);
  ASSERT_EQ(bytes[budget(1)], params.hot_transmissions);
  ASSERT_EQ(bytes[kQueue + 4], 1);
  ASSERT_EQ(bytes[kQueue + 8], 2);

  const auto restores = [&params](const std::vector<std::uint8_t>& b) {
    cluster::ClusterNode restored(0, 4, params);
    std::size_t consumed = 0;
    return restored.restore_state(b.data(), b.size(), consumed);
  };
  EXPECT_TRUE(restores(bytes));

  std::vector<std::uint8_t> repeated = bytes;  // queue [1, 1]
  patch(repeated, kQueue + 8, 1, 4);
  repeated[budget(2)] = 0;
  EXPECT_FALSE(restores(repeated)) << "an id queued twice";

  std::vector<std::uint8_t> spent = bytes;
  spent[budget(2)] = 0;
  EXPECT_FALSE(restores(spent)) << "a queued id without budget";

  std::vector<std::uint8_t> unqueued = bytes;
  unqueued[budget(3)] = 1;
  EXPECT_FALSE(restores(unqueued)) << "budget left but not queued";

  const std::int64_t int32_max = std::numeric_limits<std::int32_t>::max();
  const struct {
    std::int64_t tick;
    bool restores;
  } kTicks[] = {
      {-1, true}, {int32_max, true}, {int32_max + 1, false}, {-2, false}};
  for (const auto& c : kTicks) {
    std::vector<std::uint8_t> ticked = bytes;
    patch(ticked, kEvalTicks + 8 * 1, static_cast<std::uint64_t>(c.tick), 8);
    EXPECT_EQ(restores(ticked), c.restores) << "eval tick " << c.tick;
  }
}

TEST(NodeCheckpoint, AdaptiveNodeWritesTheFixedHeartbeatSlot) {
  // An adaptive node records no heartbeat time (its stamp stays the
  // grace origin), yet its checkpoint keeps the kFixed layout: after the
  // 33-byte header and the counters, each peer's 10-byte hot entry
  // starts with an 8-byte heartbeat time that holds -1.0 ("no advance
  // yet"), and a restore refuses any other value there.
  cluster::NodeParams params;
  params.detector.kind = rt::DetectorKind::kChen;
  cluster::ClusterNode node(0, 4, params);
  node.observe(1, 5, 10.0);
  node.observe(1, 6, 20.0);  // an advance: peer 1 gets a Chen detector
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  constexpr std::size_t kPeers = 4;
  constexpr std::size_t kHot = 33 + 4 * kPeers;
  const auto slot = [](std::size_t peer) { return kHot + 10 * peer; };
  for (std::size_t p = 0; p < kPeers; ++p) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      bits |= std::uint64_t{bytes[slot(p) + i]} << (8 * i);
    }
    EXPECT_EQ(bits, std::bit_cast<std::uint64_t>(-1.0)) << "peer " << p;
  }

  const auto restores = [&params](const std::vector<std::uint8_t>& b) {
    cluster::ClusterNode restored(0, 4, params);
    std::size_t consumed = 0;
    if (!restored.restore_state(b.data(), b.size(), consumed)) return false;
    std::vector<std::uint8_t> resaved;
    restored.save_state(resaved);
    return consumed == b.size() && resaved == b;
  };
  EXPECT_TRUE(restores(bytes));
  for (const double last :
       {20.0, 0.0, -2.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<std::uint8_t> patched = bytes;
    patch(patched, slot(1), std::bit_cast<std::uint64_t>(last), 8);
    EXPECT_FALSE(restores(patched)) << "heartbeat slot " << last;
  }
}

TEST(NodeCheckpoint, RestoredRingResavesIdentically) {
  // With one transmission per advance, a digest drains what it takes,
  // so re-queued peers wrap round the 4-slot ring: queue [3, 1, 2] in
  // slots 2, 3, 0. It saves in FIFO order, and the restored node (ring
  // rebased at slot 0) writes the same bytes and digests the same ids.
  cluster::NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  params.hot_transmissions = 1;
  cluster::ClusterNode node(0, 4, params);
  const auto keep_all = [](cluster::NodeId) { return true; };
  std::vector<cluster::NodeId> digest;
  for (cluster::NodeId peer = 1; peer <= 3; ++peer) node.observe(peer, 1, 0.0);
  node.select_digest(2, keep_all, digest);
  ASSERT_EQ(digest, (std::vector<cluster::NodeId>{1, 2}));
  node.observe(1, 2, 10.0);
  node.observe(2, 2, 10.0);
  ASSERT_EQ(node.hot_queue_depth(), 3u);
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  constexpr std::size_t kQueue = 189;  // as in the test above
  ASSERT_EQ(bytes.size(), kQueue + 4 + 3 * 4);
  EXPECT_EQ(bytes[kQueue + 4], 3);
  EXPECT_EQ(bytes[kQueue + 8], 1);
  EXPECT_EQ(bytes[kQueue + 12], 2);

  cluster::ClusterNode restored(0, 4, params);
  std::size_t consumed = 0;
  ASSERT_TRUE(restored.restore_state(bytes.data(), bytes.size(), consumed));
  EXPECT_EQ(consumed, bytes.size());
  std::vector<std::uint8_t> resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved, bytes);
  std::vector<cluster::NodeId> a;
  std::vector<cluster::NodeId> b;
  node.select_digest(2, keep_all, a);
  restored.select_digest(2, keep_all, b);
  EXPECT_EQ(a, (std::vector<cluster::NodeId>{3, 1}));
  EXPECT_EQ(a, b);
}

/// Deadlines and verdicts of every peer of `node` at a few times.
std::vector<double> verdicts(const cluster::ClusterNode& node) {
  std::vector<double> out;
  for (cluster::NodeId p = 0; p < node.max_nodes(); ++p) {
    out.push_back(node.suspect_deadline(p));
    out.push_back(node.suspect_since(p));
    out.push_back(node.knows(p));
    out.push_back(node.is_suspected(p));
    for (const double t : {250.0, 500.0, 1'099.0, 1'101.0, 5'000.0}) {
      out.push_back(node.suspects(p, t));
    }
  }
  return out;
}

TEST(NodeCheckpoint, EveryPeerStateKeepsItsVerdicts) {
  // Peer 1 is known but unheard (grace), 2 heard (timeout), 3 heard and
  // suspected, 4 unknown. A restored node judges each the same way and
  // saves the same bytes, on every detector kind.
  for (const rt::DetectorKind kind :
       {rt::DetectorKind::kFixed, rt::DetectorKind::kChen,
        rt::DetectorKind::kPhi}) {
    SCOPED_TRACE(rt::detector_kind_name(kind));
    cluster::NodeParams params;
    params.detector.kind = kind;
    params.detector.fixed.timeout_ms = 200.0;
    params.bootstrap_grace_ms = 1'000.0;
    cluster::ClusterNode node(0, 5, params);
    node.learn_peer(1, 100.0);
    node.observe(2, 1, 150.0);
    node.observe(2, 2, 300.0);
    node.observe(3, 1, 150.0);
    node.observe(3, 2, 200.0);
    node.set_suspected(3, true, 450.0);
    std::vector<std::uint8_t> bytes;
    node.save_state(bytes);
    cluster::ClusterNode restored(0, 5, params);
    std::size_t consumed = 0;
    ASSERT_TRUE(restored.restore_state(bytes.data(), bytes.size(), consumed));
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(verdicts(restored), verdicts(node));
    std::vector<std::uint8_t> resaved;
    restored.save_state(resaved);
    EXPECT_EQ(resaved, bytes);
  }
}

/// A kFixed node of 4 peers: the 33-byte header, 4-byte counters and
/// 10-byte hot entries (heartbeat, flags, budget), 8-byte eval ticks,
/// then the 17-byte records (known_since, suspect_since, no-detector
/// flag); see RefusesStatesTheHotRingCannotHold.
constexpr std::size_t kHotEntry = 33 + 4 * 4;
constexpr std::size_t kRecordEntry = kHotEntry + 10 * 4 + 8 * 4;

TEST(NodeCheckpoint, PreMergeStatesRestoreToTheSameDeadlines) {
  // Before a kFixed node kept one time per peer, a heard peer's record
  // carried its real grace origin next to its heartbeat; now that slot
  // repeats the heartbeat. A state hand-built in the old form restores
  // to the same deadlines and verdicts, and saves in the new one.
  cluster::NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  params.detector.fixed.timeout_ms = 200.0;
  params.bootstrap_grace_ms = 1'000.0;
  cluster::ClusterNode node(0, 4, params);
  node.learn_peer(1, 0.0);
  node.observe(1, 1, 50.0);
  node.observe(1, 2, 700.0);  // heard: deadline 900
  node.learn_peer(2, 100.0);  // unheard: deadline 1100
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  const auto known_since = [](std::size_t peer) {
    return kRecordEntry + 17 * peer;
  };
  ASSERT_EQ(read_u64(bytes, kHotEntry + 10 * 1),
            std::bit_cast<std::uint64_t>(700.0));
  ASSERT_EQ(read_u64(bytes, known_since(1)),
            std::bit_cast<std::uint64_t>(700.0));
  ASSERT_EQ(read_u64(bytes, known_since(2)),
            std::bit_cast<std::uint64_t>(100.0));

  std::vector<std::uint8_t> old_form = bytes;
  patch(old_form, known_since(1), std::bit_cast<std::uint64_t>(0.0), 8);
  cluster::ClusterNode restored(0, 4, params);
  std::size_t consumed = 0;
  ASSERT_TRUE(
      restored.restore_state(old_form.data(), old_form.size(), consumed));
  EXPECT_EQ(restored.suspect_deadline(1), 900.0);
  EXPECT_EQ(restored.suspect_deadline(2), 1'100.0);
  EXPECT_EQ(verdicts(restored), verdicts(node));
  std::vector<std::uint8_t> resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved, bytes);
}

TEST(NodeCheckpoint, RefusesAHeartbeatWithoutMembership) {
  // One time slot per peer relies on heard => known: a heartbeat on file
  // for a peer without the known flag is refused (a later learn_peer
  // would overwrite it), and so are a NaN heartbeat and the heard bit,
  // which the format leaves implicit. Any negative time still reads as
  // "no advance yet".
  cluster::NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  cluster::ClusterNode node(0, 4, params);
  node.learn_peer(1, 0.0);
  node.observe(1, 1, 50.0);
  node.observe(1, 2, 700.0);
  node.learn_peer(2, 100.0);
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  const auto heartbeat = [](std::size_t peer) { return kHotEntry + 10 * peer; };
  const auto flags = [](std::size_t peer) {
    return kHotEntry + 10 * peer + 8;
  };
  const auto restores = [&params](const std::vector<std::uint8_t>& b) {
    cluster::ClusterNode restored(0, 4, params);
    std::size_t consumed = 0;
    return restored.restore_state(b.data(), b.size(), consumed);
  };
  EXPECT_TRUE(restores(bytes));

  std::vector<std::uint8_t> forgotten = bytes;
  forgotten[flags(1)] &= static_cast<std::uint8_t>(~1u);  // the known flag
  EXPECT_FALSE(restores(forgotten)) << "a heard peer not known";

  std::vector<std::uint8_t> stranger = bytes;
  patch(stranger, heartbeat(3), std::bit_cast<std::uint64_t>(500.0), 8);
  EXPECT_FALSE(restores(stranger)) << "a heartbeat of a peer never met";

  std::vector<std::uint8_t> nan = bytes;
  patch(nan, heartbeat(1),
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()),
        8);
  EXPECT_FALSE(restores(nan)) << "a NaN heartbeat";

  std::vector<std::uint8_t> heard_bit = bytes;
  heard_bit[flags(1)] |= 16;
  EXPECT_FALSE(restores(heard_bit)) << "the heard bit on file";

  std::vector<std::uint8_t> negative = bytes;
  patch(negative, heartbeat(2), std::bit_cast<std::uint64_t>(-2.0), 8);
  EXPECT_TRUE(restores(negative)) << "a negative heartbeat";
}

/// One seeded mutation of a soak payload: byte flips, truncation, or a
/// 4- or 8-byte field overwritten with a length, counter or time that
/// lies.
void mutate(std::vector<std::uint8_t>& payload, Rng& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(static_cast<std::int64_t>(n)));
  };
  switch (rng.below(4)) {
    case 0: {  // flip one to four bytes
      const std::int64_t flips = 1 + rng.below(4);
      for (std::int64_t i = 0; i < flips; ++i) {
        payload[pick(payload.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
      break;
    }
    case 1:  // truncate at a random offset
      payload.resize(pick(payload.size()));
      break;
    case 2: {  // a 4-byte field
      static const std::uint32_t kValues[] = {0, 1u << 24, 1u << 28,
                                              0xffffffffu};
      patch(payload, pick(payload.size() - 3), kValues[pick(4)], 4);
      break;
    }
    default: {  // an 8-byte field
      const std::uint64_t kValues[] = {
          std::bit_cast<std::uint64_t>(1e308),
          std::bit_cast<std::uint64_t>(-1e308),
          std::bit_cast<std::uint64_t>(
              std::numeric_limits<double>::quiet_NaN()),
          std::uint64_t{1} << 32};
      patch(payload, pick(payload.size() - 7), kValues[pick(4)], 8);
      break;
    }
  }
}

TEST(CheckpointFuzz, MutatedPayloadsAreRefusedOrResume) {
  reset_shutdown();
  const std::string source = temp_path("fuzz_source");
  SoakConfig first = flaky_soak_config();
  first.duration_ms = 3'000.0;
  first.checkpoint_path = source;
  first.checkpoint_every_ms = 100'000.0;  // only the exit snapshot
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(first, report, error)) << error;
  CheckpointData original;
  ASSERT_TRUE(read_checkpoint(source, soak_config_fingerprint(first),
                              original, error))
      << error;
  std::remove(source.c_str());

  SoakConfig resume = flaky_soak_config();
  resume.duration_ms = 4'000.0;
  resume.checkpoint_path = temp_path("fuzz_mutant");
  resume.resume = true;
  constexpr int kMutants = 1200;
  Rng rng(0xc0ffee11);
  int resumed = 0;
  int refused = 0;
  for (int i = 0; i < kMutants; ++i) {
    CheckpointData data = original;
    mutate(data.payload, rng);
    ASSERT_TRUE(write_checkpoint(resume.checkpoint_path, data, error))
        << error;
    SoakReport out;
    std::string why;
    if (run_soak(resume, out, why)) {
      ++resumed;
      EXPECT_EQ(out.sim_ms, resume.duration_ms) << "mutant " << i;
    } else {
      ++refused;
      EXPECT_FALSE(why.empty()) << "mutant " << i;
    }
  }
  std::remove(resume.checkpoint_path.c_str());
  // Both outcomes occur, so the mutations are neither all fatal nor all
  // harmless.
  EXPECT_GT(resumed, 0);
  EXPECT_GT(refused, 0);
}

// --- pinned soak outcomes --------------------------------------------

/// The configuration `soak_main 7 --backend sim --n <n>` builds: gossip
/// fanout 3, a fixed 1 s detector on a 100 ms grid, and a digest of n
/// entries clamped to [32, kMaxSoakDigest].
SoakConfig soak_main_config(int n) {
  SoakConfig config;
  config.seed = 7;
  config.n = n;
  config.duration_ms = 30'000.0;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;
  config.topology.digest_size = std::min(std::max(32, n), kMaxSoakDigest);
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 1'000.0;
  return config;
}

TEST(SoakOutcome, FingerprintsArePinned) {
  // Outcome fingerprints of `soak_main 7 --backend sim --scenario <f>`
  // over the scenario library. The resume tests compare a soak with
  // itself; these constants pin what the soak computes, so a change to
  // the digest codec, the topology or the fault interpreter that shifts
  // any verdict, counter or detection sample fails here. Next to each
  // sits the digest of the same run's JSONL trace (`--trace`, snapshots
  // every 50 ticks): the fingerprint hashes counters and samples, the
  // trace digest every record the run emits, header and drops included.
  const struct {
    const char* file;
    std::uint64_t fingerprint;
    const char* trace;
  } kPinned[] = {
      {"asymmetric_partition.scn", 0x5ec5ecbefe65022bull,
       "1b402cf156968fff"},
      {"byzantine_counters.scn", 0xc76a36481273e626ull,
       "e2526a5cd50aa3e4"},
      {"cascading_overload.scn", 0x38e46b8b3851ad28ull,
       "20ecfe0dd41cb5a4"},
      {"churn_storm.scn", 0x2cb6e7acd3d02b97ull,
       "046a8b50e9193047"},
      {"crash_recovery_wave.scn", 0x9f893770b3fbf0ebull,
       "778450feebac1da6"},
      {"flapping_links.scn", 0x5b324daef4bfb4d2ull,
       "fae9e358c2cd5cb7"},
      {"gray_failure.scn", 0x61dda4278e91e724ull,
       "6b1c29f422fa48fb"},
      {"partition_cascade.scn", 0xa757d540b8eef134ull,
       "7f5e9d54f34a5efb"},
      {"rack_failure.scn", 0x1a07ee8d70ceeaedull,
       "fd744eeab60d209e"},
      {"slow_nodes.scn", 0x8a69edb5c9ed068bull,
       "e73621a6462b95d1"},
  };
  const std::string trace_path = temp_path("pinned_trace");
  const auto run_traced = [&trace_path](SoakConfig config,
                                        SoakReport& report,
                                        std::string& trace_digest) {
    config.obs.trace_path = trace_path;
    config.obs.snapshot_every_ticks = 50;
    std::string error;
    const bool ok = run_soak(config, report, error);
    trace_digest = cluster::testutil::fnv1a_hex(
        cluster::testutil::read_file(trace_path));
    std::remove(trace_path.c_str());
    return ok ? std::string() : error.empty() ? "failed" : error;
  };
  reset_shutdown();
  for (const auto& pin : kPinned) {
    const cluster::ScenarioDoc doc = cluster::testutil::load_doc(pin.file);
    SoakConfig config = soak_main_config(doc.n > 0 ? doc.n : 16);
    if (doc.max_nodes > 0) config.max_nodes = doc.max_nodes;
    if (doc.duration_ms > 0.0) config.duration_ms = doc.duration_ms;
    config.scenario = doc.scenario;
    SoakReport report;
    std::string trace;
    const std::string error = run_traced(config, report, trace);
    ASSERT_TRUE(error.empty()) << pin.file << ": " << error;
    EXPECT_EQ(report.outcome_fingerprint, pin.fingerprint)
        << pin.file << ": got " << std::hex << report.outcome_fingerprint;
    EXPECT_EQ(trace, pin.trace) << pin.file << " trace";
  }

  // `soak_main 7 --backend sim --n 64 --flaky --flaky-loss 0.05`: the
  // socket-boundary injection layer over the sim backend.
  SoakConfig flaky = soak_main_config(64);
  flaky.flaky = true;
  flaky.flaky_params.network.loss_prob = 0.05;
  SoakReport report;
  std::string trace;
  const std::string error = run_traced(flaky, report, trace);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(report.outcome_fingerprint, 0x924ee267bb2a2b00ull)
      << "flaky: got " << std::hex << report.outcome_fingerprint;
  EXPECT_EQ(trace, "3f4445858bfd3fc2") << "flaky trace";
}

}  // namespace
}  // namespace rfd::transport
