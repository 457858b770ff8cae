// Experiment E13: sharded-core scaling - what the deterministic
// multi-threaded simulation core buys at cluster scale.
//
// The E12 gossip workload (heartbeat fabric + fixed-timeout detectors +
// a mid-run crash wave) runs at n in {1024, 4096, 10240} for shards in
// {1, 2, 4, 8}; each cell reports events/sec, wall ms and msgs/node/s,
// plus the speedup over the shards=1 run of the same n. Because the
// sharded engine is bit-for-bit shard-count-invariant (see
// cluster/engine.cpp), every row of one n is the *same simulation* - the
// bench asserts the invariance on its own results, so a determinism
// regression fails the bench before it can mislead the scaling numbers.
//
// RFD_E13_SMOKE=1 restricts to n=4096, shards in {1, 2, 4} for CI, which
// gates each shards=s row against the shards=1 run at a floor set by
// p = min(s, env.usable_cpus): 1.5x for p >= 4, 1.15x for p = 2 or 3, no
// gate for p = 1. Rows land in BENCH_e13_shard.json, with an `env` block
// recording the host's CPU budget so the speedups can be read in context,
// and the process's peak RSS, which CI divides by the smoke's 4096^2
// (observer, peer) pairs to gate the engine's bytes per pair.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/engine.hpp"
#include "common/assert.hpp"
#include "common/table.hpp"

namespace rfd {
namespace {

using bench::gossip_config;
using bench::usable_cpus;
using cluster::ClusterConfig;
using cluster::ClusterReport;

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// The fields the shard-count invariance is asserted on (cheap proxies
/// for the full report; the dedicated test covers traces byte-for-byte).
struct Invariant {
  std::int64_t events = 0;
  std::int64_t messages = 0;
  std::int64_t false_suspicions = 0;
  std::int64_t detections = 0;

  bool operator==(const Invariant&) const = default;
};

Invariant invariant_of(const ClusterReport& r) {
  return Invariant{r.events_executed, r.messages_sent, r.false_suspicions,
                   r.detection_latency_ms.count()};
}

}  // namespace
}  // namespace rfd

int main(int argc, char** argv) {
  using namespace rfd;
  const bool smoke = std::getenv("RFD_E13_SMOKE") != nullptr;
  bench::JsonReport json("e13_shard");
  json.env_num("hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()));
  json.env_num("usable_cpus", static_cast<double>(usable_cpus()));
  json.env_str("pinning",
#ifdef __linux__
               "sched_getaffinity"
#else
               "none"
#endif
  );

  const std::vector<int> sizes =
      smoke ? std::vector<int>{4096} : std::vector<int>{1024, 4096, 10240};
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  std::printf("E13: sharded-core scaling (gossip fabric, %s)\n",
              smoke ? "smoke: n=4096, shards in {1, 2, 4}"
                    : "n in {1024, 4096, 10240}, shards in {1, 2, 4, 8}");
  std::printf("host: %u hw threads, %d usable cpus\n\n",
              std::thread::hardware_concurrency(), usable_cpus());

  Table table({"n", "shards", "sim events", "wall ms", "events/s",
               "msgs/node/s", "speedup"});
  for (const int n : sizes) {
    ClusterConfig config = gossip_config(n);
    if (n >= 10'240) config.duration_ms = 6'000.0;
    double base_rate = 0.0;
    Invariant baseline;
    for (const int shards : shard_counts) {
      config.shards = shards;
      ClusterReport r;
      const double ms =
          wall_ms([&] { r = cluster::run_cluster(config, 0xe13); });
      const double events_per_s =
          ms > 0.0 ? static_cast<double>(r.events_executed) / (ms / 1000.0)
                   : 0.0;
      const Invariant inv = invariant_of(r);
      if (shards == shard_counts.front()) {
        base_rate = events_per_s;
        baseline = inv;
      } else {
        // Same simulation or the scaling numbers are meaningless.
        RFD_REQUIRE_MSG(inv == baseline,
                        "sharded run diverged from shards=1 results");
      }
      const double speedup = base_rate > 0.0 ? events_per_s / base_rate : 0.0;
      table.add_row({Table::num(n), Table::num(shards),
                     Table::num(r.events_executed), Table::fixed(ms, 1),
                     Table::fixed(events_per_s, 0),
                     Table::fixed(r.messages_per_node_per_s, 1),
                     Table::fixed(speedup, 2) + "x"});
      json.row("shard_scaling")
          .str("topology", "gossip")
          .num("n", n)
          .num("shards", shards)
          .num("sim_duration_ms", config.duration_ms)
          .num("events_executed", static_cast<double>(r.events_executed))
          .num("wall_ms", ms)
          .num("events_per_s", events_per_s)
          .num("msgs_per_node_per_s", r.messages_per_node_per_s)
          .num("payload_bytes_per_node_per_s",
               r.payload_bytes_per_node_per_s)
          .num("peak_event_queue", static_cast<double>(r.peak_event_queue))
          .num("speedup_vs_one_shard", speedup);
    }
  }
  table.print("E13: events/sec by shard count (gossip, crash wave)");
  std::printf(
      "\nspeedup is vs the shards=1 run of the same n (same binary, same\n"
      "barrier protocol), so it isolates the parallelism win; results are\n"
      "asserted identical across shard counts before any rate is "
      "reported.\n\n");

  const double peak_mb = bench::peak_rss_mb();
  std::printf("peak RSS %.1f MB\n\n", peak_mb);
  json.env_num("peak_rss_mb", peak_mb);
  json.write();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
