// Failure detector playground: tune a timeout-based detector against a
// simulated network and see the Chen-Toueg QoS metrics plus what the same
// configuration does inside a membership group (both cluster engine runs;
// a configuration the engine refuses exits 1 with its reason).
//
//   ./fd_playground --detector=chen --alpha=200 --jitter=0.9 --loss=0.05
//       --hb=100 --crash-at=40000 [--seed=1]   (one command line)
//   ./fd_playground --detector=fixed --timeout=300
//   ./fd_playground --detector=phi --threshold=8
#include <cstdio>

#include "core/api.hpp"

using namespace rfd;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  cluster::QosConfig config;
  const std::string kind = cli.get("detector", "chen");
  if (kind == "fixed") {
    config.detector.kind = rt::DetectorKind::kFixed;
    config.detector.fixed.timeout_ms = cli.get_double("timeout", 300.0);
  } else if (kind == "phi") {
    config.detector.kind = rt::DetectorKind::kPhi;
    config.detector.phi.threshold = cli.get_double("threshold", 8.0);
  } else {
    config.detector.kind = rt::DetectorKind::kChen;
    config.detector.chen.alpha_ms = cli.get_double("alpha", 200.0);
  }
  config.heartbeat_interval_ms = cli.get_double("hb", 100.0);
  config.network.jitter_sigma = cli.get_double("jitter", 0.9);
  config.network.loss_prob = cli.get_double("loss", 0.05);
  config.crash_at_ms = cli.get_double("crash-at", 40'000.0);
  config.duration_ms = cli.get_double("duration", 60'000.0);

  // The same detector inside a membership group: what the P-abstraction
  // costs at this tuning.
  cluster::MembershipConfig membership;
  membership.n = 6;
  membership.detector = config.detector;
  membership.network = config.network;
  membership.heartbeat_interval_ms = config.heartbeat_interval_ms;
  membership.duration_ms = config.duration_ms;
  membership.crash_at_ms = std::vector<double>(6, -1.0);
  membership.crash_at_ms[4] = config.crash_at_ms;
  std::string error = cluster::config_error(cluster::cluster_config(config));
  if (error.empty()) {
    error = cluster::config_error(cluster::cluster_config(membership));
  }
  if (!error.empty()) {
    std::fprintf(stderr, "fd_playground: %s\n", error.c_str());
    return 1;
  }

  std::printf("detector=%s hb=%.0fms jitter=%.2f loss=%.0f%% crash@%.0fms\n",
              rt::detector_kind_name(config.detector.kind).c_str(),
              config.heartbeat_interval_ms, config.network.jitter_sigma,
              config.network.loss_prob * 100.0, config.crash_at_ms);

  const auto agg = cluster::run_qos_sweep(config, seed, 10);
  std::printf("\nQoS over 10 runs (Chen-Toueg metrics):\n");
  std::printf("  detection time T_D : mean %.1f ms, p99 %.1f ms"
              " (%lld undetected)\n",
              agg.detection_time_ms.mean(),
              agg.detection_time_ms.percentile(0.99),
              static_cast<long long>(agg.undetected_crashes));
  std::printf("  mistake rate       : %.3f /min\n",
              agg.mistake_rate_per_s.mean() * 60.0);
  std::printf("  mistake duration   : %.1f ms\n",
              agg.avg_mistake_duration_ms);
  std::printf("  query accuracy P_A : %.4f%%\n",
              agg.query_accuracy.mean() * 100.0);

  std::int64_t false_exclusions = 0;
  int accurate = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    const auto r = cluster::run_membership_experiment(membership, seed + s);
    false_exclusions += r.false_exclusions;
    accurate += r.suspicions_accurate ? 1 : 0;
  }
  std::printf("\nmembership (n=6, 6 runs): %lld live nodes sacrificed;"
              " abstraction accurate in %d/6 runs\n",
              static_cast<long long>(false_exclusions), accurate);
  std::printf("\nEvery suspicion the group acts on 'turns out accurate' -\n"
              "because acting on it is what makes it accurate. That is the\n"
              "paper's Perfect-detector emulation in production clothes.\n");
  return 0;
}
