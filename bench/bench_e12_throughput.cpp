// Experiment E12: simulation-core throughput - how many discrete events
// per wall-clock second the runtime layer sustains at cluster scale.
//
// Section (a), cluster: end-to-end events/sec, wall-clock ms and peak
// pending-event count for the gossip fabric at n in {64, 256, 1024} (the
// e11 flagship workload, shortened).
//
// Regressions are measured against the checked-in end-to-end benchmark
// baseline (bench_end2end/results), not against constants frozen here.
//
// RFD_E12_SMOKE=1 restricts section (a) to n=64 for CI smoke runs.
//
// RFD_E12_TRACE=1 adds section (c): the observability overhead check.
// The same gossip workload runs trace-off and trace-on (JSONL event
// trace + snapshots, interleaved best of 5 each on process CPU time) at
// n=RFD_E12_TRACE_N (default 1024), the trace landing at
// RFD_E12_TRACE_PATH (default e12_trace.jsonl). The cost of tracing is
// the CPU time the trace adds per record written; CI gates on it, so a
// faster untraced loop does not read as a dearer trace.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/engine.hpp"
#include "common/table.hpp"

namespace rfd {
namespace {

using bench::gossip_config;
using cluster::ClusterConfig;
using cluster::ClusterReport;

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Process CPU time: the right clock for the E12c instrumentation-overhead
// ratio. The sim is single-threaded, and on shared/virtualized runners
// wall clock includes steal and scheduling noise that swamps a 5% budget;
// CPU time measures only the cycles this process actually burned.
double cpu_ms(const std::function<void()>& fn) {
  timespec start{}, end{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &start);
  fn();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &end);
  return (static_cast<double>(end.tv_sec - start.tv_sec)) * 1e3 +
         (static_cast<double>(end.tv_nsec - start.tv_nsec)) * 1e-6;
}

void BM_ClusterThroughput256(benchmark::State& state) {
  ClusterConfig config = gossip_config(256);
  config.duration_ms = 6'000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::run_cluster(config, 42));
  }
}
BENCHMARK(BM_ClusterThroughput256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace rfd

int main(int argc, char** argv) {
  using namespace rfd;
  const bool smoke = std::getenv("RFD_E12_SMOKE") != nullptr;
  bench::JsonReport json("e12_throughput");

  std::printf("E12: simulation-core throughput (gossip fabric, %s)\n\n",
              smoke ? "smoke: n=64 only" : "n in {64, 256, 1024}");

  {
    Table table({"n", "sim events", "wall ms", "events/s", "peak queue",
                 "msgs sent"});
    const std::vector<int> sizes = smoke ? std::vector<int>{64}
                                         : std::vector<int>{64, 256, 1024};
    for (const int n : sizes) {
      const ClusterConfig config = gossip_config(n);
      ClusterReport r;
      const double ms = wall_ms([&] { r = cluster::run_cluster(config, 0xe12); });
      const double events_per_s =
          ms > 0.0 ? static_cast<double>(r.events_executed) / (ms / 1000.0)
                   : 0.0;
      table.add_row({Table::num(n), Table::num(r.events_executed),
                     Table::fixed(ms, 1), Table::fixed(events_per_s, 0),
                     Table::num(r.peak_event_queue),
                     Table::num(r.messages_sent)});
      json.row("cluster")
          .str("topology", "gossip")
          .num("n", n)
          .num("sim_duration_ms", config.duration_ms)
          .num("events_executed", static_cast<double>(r.events_executed))
          .num("wall_ms", ms)
          .num("events_per_s", events_per_s)
          .num("peak_event_queue", static_cast<double>(r.peak_event_queue))
          .num("messages_sent", static_cast<double>(r.messages_sent));
    }
    table.print("E12a: cluster engine throughput (12s simulated, gossip)");
  }

  if (std::getenv("RFD_E12_TRACE") != nullptr) {
    const char* n_env = std::getenv("RFD_E12_TRACE_N");
    const int n = n_env != nullptr ? std::atoi(n_env) : 1024;
    const char* path_env = std::getenv("RFD_E12_TRACE_PATH");
    const std::string trace_path =
        path_env != nullptr ? path_env : "e12_trace.jsonl";

    const ClusterConfig off_config = gossip_config(n);
    ClusterConfig on_config = off_config;
    on_config.obs.trace_path = trace_path;
    on_config.obs.snapshot_every_ticks = 20;
    // Profiling is its own opt-in toggle (it perturbs the stream with
    // wall-clock rollups), so the gated ratio measures pure trace +
    // snapshot cost; a separate profiled run below feeds the rollup rows.

    // Interleaved best-of-5 on process CPU time: off/on alternate so
    // frequency drift or a noisy neighbour biases neither side, and the
    // minimum discards runs that ate a page-cache miss or a steal spike.
    const auto run_one = [](const ClusterConfig& config, ClusterReport& out) {
      return cpu_ms([&] { out = cluster::run_cluster(config, 0xe12); });
    };
    ClusterReport off_report, on_report;
    double off_ms = 0.0, on_ms = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      ClusterReport off_r, on_r;
      const double o = run_one(off_config, off_r);
      const double t = run_one(on_config, on_r);
      if (rep == 0 || o < off_ms) {
        off_ms = o;
        off_report = std::move(off_r);
      }
      if (rep == 0 || t < on_ms) {
        on_ms = t;
        on_report = std::move(on_r);
      }
    }
    const auto rate = [](const ClusterReport& r, double ms) {
      return ms > 0.0 ? static_cast<double>(r.events_executed) / (ms / 1000.0)
                      : 0.0;
    };
    const double off_rate = rate(off_report, off_ms);
    const double on_rate = rate(on_report, on_ms);
    const double ratio = off_rate > 0.0 ? on_rate / off_rate : 0.0;
    const double ns_per_record =
        on_report.trace_records > 0
            ? (on_ms - off_ms) * 1e6 /
                  static_cast<double>(on_report.trace_records)
            : 0.0;

    Table table({"mode", "cpu ms", "events/s", "trace records", "ratio",
                 "ns/record"});
    table.add_row({"trace-off", Table::fixed(off_ms, 1),
                   Table::fixed(off_rate, 0), "-", "1.00", "-"});
    table.add_row({"trace-on", Table::fixed(on_ms, 1),
                   Table::fixed(on_rate, 0),
                   Table::num(on_report.trace_records),
                   Table::fixed(ratio, 3), Table::fixed(ns_per_record, 1)});
    table.print("E12c: observability overhead (gossip n=" +
                std::to_string(n) + ", trace + snapshots)");
    json.row("trace_overhead")
        .str("topology", "gossip")
        .num("n", n)
        .num("off_events_per_s", off_rate)
        .num("on_events_per_s", on_rate)
        .num("ratio", ratio)
        .num("off_cpu_ms", off_ms)
        .num("on_cpu_ms", on_ms)
        .num("trace_records", static_cast<double>(on_report.trace_records))
        .num("trace_dropped", static_cast<double>(on_report.trace_dropped))
        .str("trace_path", trace_path);
    // Separate profiled run (profiling alone, no trace file) for the
    // per-phase rollup rows; not part of the gated overhead pair.
    ClusterConfig profile_config = off_config;
    profile_config.obs.profile = true;
    ClusterReport profile_report;
    run_one(profile_config, profile_report);
    for (const auto& stat : profile_report.profile) {
      json.row("profile")
          .str("phase", stat.phase)
          .num("calls", static_cast<double>(stat.calls))
          .num("sampled", static_cast<double>(stat.sampled))
          .num("est_ms", stat.est_ms);
      std::printf("profile: %-8s calls=%lld est=%.2fms\n", stat.phase.c_str(),
                  static_cast<long long>(stat.calls), stat.est_ms);
    }
    std::printf("\ntrace overhead: %.1f ns per record (events/s ratio "
                "%.3f)\n\n",
                ns_per_record, ratio);
  }

  json.write();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
