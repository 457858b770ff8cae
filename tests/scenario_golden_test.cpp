// Golden-trace conformance: every file in the checked-in scenarios/
// library runs under a fixed reference configuration and seed, and the
// resulting JSONL trace must hash to the digest pinned in
// scenarios/GOLDEN.txt. This freezes the full observable behavior of the
// engine - event order, fault application, trace formatting - per
// scenario; any engine change that moves a single trace byte fails here
// and must consciously re-pin (the test prints a fresh table to paste).
//
// The digests also gate the scenario corpus itself: a .scn file that is
// added without a GOLDEN.txt row, or a row whose file is gone, fails.
//
// The same files also pin a caller's transport (the soak's) to the
// engine's own endpoints: over a FlakyTransport with no inner wire,
// seeded like the endpoints' network, a run writes the protocol records
// of a run on the engine's own network.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "scenario_test_util.hpp"
#include "transport/flaky.hpp"

namespace rfd::cluster {
namespace {

using testutil::fnv1a_hex;
using testutil::load_doc;
using testutil::protocol_records;
using testutil::read_file;
using testutil::scenario_cluster_config;
using testutil::scenario_dir;

constexpr std::uint64_t kGoldenSeed = 20020623;  // DSN 2002

/// GOLDEN.txt rows: `<digest-hex> <file>` per line, `#` comments.
std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> pinned;
  std::istringstream in(read_file(scenario_dir() + "/GOLDEN.txt"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string digest, file;
    if (fields >> digest >> file) pinned[file] = digest;
  }
  return pinned;
}

std::string run_digest(const std::string& file) {
  const ScenarioDoc doc = load_doc(file);
  ClusterConfig config = scenario_cluster_config(doc);
  const std::string path =
      ::testing::TempDir() + "/rfd_golden_" + file + ".jsonl";
  config.obs.trace_path = path;
  config.obs.snapshot_every_ticks = 10;
  const ClusterReport report = run_cluster(config, kGoldenSeed);
  EXPECT_EQ(report.trace_dropped, 0) << file;
  const std::string trace = read_file(path);
  std::remove(path.c_str());
  EXPECT_FALSE(trace.empty()) << file;
  return fnv1a_hex(trace);
}

TEST(ScenarioGolden, EveryScenarioFileMatchesItsPinnedTraceDigest) {
  const std::map<std::string, std::string> pinned = load_golden();
  ASSERT_GE(pinned.size(), 8u)
      << "scenarios/GOLDEN.txt is missing or nearly empty";

  std::map<std::string, std::string> fresh;
  for (const auto& entry :
       std::filesystem::directory_iterator(scenario_dir())) {
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".scn") continue;
    fresh[p.filename().string()] = run_digest(p.filename().string());
  }
  ASSERT_GE(fresh.size(), 8u);

  bool match = fresh.size() == pinned.size();
  for (const auto& [file, digest] : fresh) {
    const auto it = pinned.find(file);
    if (it == pinned.end()) {
      ADD_FAILURE() << file << " has no pinned digest in GOLDEN.txt";
      match = false;
    } else if (it->second != digest) {
      ADD_FAILURE() << file << ": trace digest " << digest
                    << " != pinned " << it->second;
      match = false;
    }
  }
  for (const auto& [file, digest] : pinned) {
    if (fresh.find(file) == fresh.end()) {
      ADD_FAILURE() << "GOLDEN.txt pins " << file
                    << " but scenarios/ has no such file";
      match = false;
    }
  }
  if (!match) {
    // Paste-ready re-pin table - only after verifying the behavior
    // change behind the new digests is intentional.
    std::ostringstream table;
    for (const auto& [file, digest] : fresh) {
      table << digest << " " << file << "\n";
    }
    ADD_FAILURE() << "fresh digest table for scenarios/GOLDEN.txt:\n"
                  << table.str();
  }
}

TEST(ScenarioGolden, TransportPathWritesTheNativeProtocolRecords) {
  for (const auto& entry :
       std::filesystem::directory_iterator(scenario_dir())) {
    const std::string file = entry.path().filename().string();
    if (entry.path().extension() != ".scn") continue;
    const ScenarioDoc doc = load_doc(file);
    const auto traced = [&](transport::Transport* wire) {
      ClusterConfig config = scenario_cluster_config(doc);
      const std::string path =
          ::testing::TempDir() + "/rfd_paths_" + file + ".jsonl";
      config.obs.trace_path = path;
      config.obs.snapshot_every_ticks = 10;
      config.transport = wire;
      run_cluster(config, kGoldenSeed);
      const std::string trace = read_file(path);
      std::remove(path.c_str());
      return protocol_records(trace);
    };
    const std::vector<std::string> native = traced(nullptr);
    // The shard network's seed and model; it never duplicates.
    transport::FlakyParams params;
    params.network = scenario_cluster_config(doc).network;
    transport::FlakyTransport wire(nullptr,
                                   scenario_cluster_config(doc).max_nodes,
                                   mix_seed(kGoldenSeed, 0xc1e5), params);
    const std::vector<std::string> carried = traced(&wire);
    ASSERT_GT(native.size(), 1000u) << file;
    ASSERT_EQ(carried.size(), native.size()) << file;
    for (std::size_t i = 0; i < native.size(); ++i) {
      ASSERT_EQ(carried[i], native[i]) << file << " record " << i;
    }
  }
}

}  // namespace
}  // namespace rfd::cluster
