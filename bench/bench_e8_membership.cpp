// Experiment E8: group membership emulating P by exclusion (Section 1.3).
//
// Sweeps the detector timeout against a network with an unstable pre-GST
// period and reports what the abstraction costs: false exclusions of live
// nodes (sacrificed to keep the suspicion list accurate), exclusion
// latency for real crashes, and whether the emulation claim ("every
// suspicion turns out to be accurate") held at the end of each run. Each
// run is a cluster engine run with the group membership on
// (ClusterConfig::exclusion).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace rfd {
namespace {

cluster::MembershipConfig base_config() {
  cluster::MembershipConfig config;
  config.n = 6;
  config.duration_ms = 40'000.0;
  config.network.jitter_sigma = 0.9;
  config.network.gst_ms = 15'000.0;
  config.network.pre_gst_extra_ms = 350.0;
  config.network.pre_gst_chaos_prob = 0.4;
  config.crash_at_ms = std::vector<double>(6, -1.0);
  config.crash_at_ms[4] = 25'000.0;  // one real crash, after stabilization
  return config;
}

void BM_MembershipRun(benchmark::State& state) {
  const auto config = base_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::run_membership_experiment(config, 1));
  }
}
BENCHMARK(BM_MembershipRun)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace rfd

int main(int argc, char** argv) {
  using namespace rfd;
  std::printf("E8: group membership emulating P (n=6, unstable period until"
              "\nGST=15s, p4 crashes at 25s; 8 seeds per row)\n");

  Table table({"detector", "timeout/alpha (ms)", "false exclusions",
               "real-crash latency p50 (ms)", "converged",
               "suspicions accurate"});
  struct RowSpec {
    rt::DetectorKind kind;
    double param;
  };
  const std::vector<RowSpec> rows = {
      {rt::DetectorKind::kFixed, 150.0}, {rt::DetectorKind::kFixed, 400.0},
      {rt::DetectorKind::kFixed, 900.0}, {rt::DetectorKind::kChen, 100.0},
      {rt::DetectorKind::kChen, 300.0},  {rt::DetectorKind::kPhi, 5.0},
      {rt::DetectorKind::kPhi, 10.0},
  };
  for (const auto& row : rows) {
    auto config = base_config();
    config.detector.kind = row.kind;
    if (row.kind == rt::DetectorKind::kFixed) {
      config.detector.fixed.timeout_ms = row.param;
    } else if (row.kind == rt::DetectorKind::kChen) {
      config.detector.chen.alpha_ms = row.param;
    } else {
      config.detector.phi.threshold = row.param;
    }
    std::int64_t false_exclusions = 0;
    Summary latency;
    int converged = 0;
    int accurate = 0;
    const int runs = 8;
    for (std::uint64_t seed = 0; seed < runs; ++seed) {
      const auto r = cluster::run_membership_experiment(config, seed);
      false_exclusions += r.false_exclusions;
      latency.merge(r.exclusion_latency_ms);
      converged += r.converged ? 1 : 0;
      accurate += r.suspicions_accurate ? 1 : 0;
    }
    table.add_row(
        {rt::detector_kind_name(row.kind), Table::fixed(row.param, 0),
         Table::num(false_exclusions),
         latency.count() > 0 ? Table::fixed(latency.percentile(0.5), 0) : "-",
         std::to_string(converged) + "/" + std::to_string(runs),
         std::to_string(accurate) + "/" + std::to_string(runs)});
  }
  table.print("E8: the price of a Perfect interface");

  std::printf(
      "\nReading: hair-trigger timeouts buy fast detection at the cost of"
      "\nsacrificing live nodes during the unstable period; generous or"
      "\nadaptive detectors exclude (almost) only the real crash. In every"
      "\nrun the abstraction stays accurate - the group fences each node it"
      "\nexcludes - which is precisely how real systems \"implement\" P from"
      "\n<>P-grade timeouts.\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
