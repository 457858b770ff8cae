// Runtime-layer tests: the network model and the adaptive timeout
// detectors' core behaviours (completeness after a crash, eventual
// accuracy after stabilization, the accuracy/speed trade). The fixed
// timeout lives inline in cluster::ClusterNode (cluster_test).
#include <gtest/gtest.h>

#include "runtime/detectors.hpp"
#include "runtime/network.hpp"

namespace rfd::rt {
namespace {

TEST(Network, DelaysAreAtLeastMinimum) {
  NetworkParams params;
  params.min_delay_ms = 2.0;
  Network net(1, params);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(net.sample_delay(0.0), 2.0);
  }
}

TEST(Network, LossRateApproximates) {
  NetworkParams params;
  params.loss_prob = 0.25;
  Network net(2, params);
  int delivered = 0;
  for (int i = 0; i < 4000; ++i) {
    if (net.route(0, 1, 0.0)) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(net.dropped()) / net.sent(), 0.25, 0.03);
  EXPECT_EQ(delivered + net.dropped(), net.sent());
}

TEST(Network, PreGstPenaltyRaisesDelays) {
  NetworkParams params;
  params.gst_ms = 1e9;  // permanently pre-GST
  params.pre_gst_extra_ms = 100.0;
  params.pre_gst_chaos_prob = 1.0;
  Network chaotic(3, params);
  params.pre_gst_chaos_prob = 0.0;
  Network calm(3, params);
  double chaotic_sum = 0, calm_sum = 0;
  for (int i = 0; i < 200; ++i) {
    chaotic_sum += chaotic.sample_delay(0.0);
    calm_sum += calm.sample_delay(0.0);
  }
  EXPECT_GT(chaotic_sum / 200.0, calm_sum / 200.0 + 90.0);
}

TEST(ChenAdaptive, LearnsThePeriod) {
  ChenAdaptiveParams params;
  params.alpha_ms = 50.0;
  ChenAdaptiveDetector d(params);
  for (int i = 0; i < 10; ++i) {
    d.on_heartbeat(100.0 * i);
  }
  // Expected arrival ~1000; margin 50.
  EXPECT_FALSE(d.suspects(1040.0));
  EXPECT_TRUE(d.suspects(1060.0));
}

TEST(ChenAdaptive, AdaptsToSlowerPeriod) {
  ChenAdaptiveParams params;
  params.alpha_ms = 30.0;
  params.window = 4;
  ChenAdaptiveDetector d(params);
  double t = 0.0;
  for (int i = 0; i < 6; ++i) {
    d.on_heartbeat(t);
    t += 100.0;
  }
  const double fast_ea = d.expected_arrival();
  for (int i = 0; i < 6; ++i) {
    d.on_heartbeat(t);
    t += 300.0;
  }
  EXPECT_GT(d.expected_arrival() - (t - 300.0), fast_ea - 500.0);
  EXPECT_FALSE(d.suspects(t - 300.0 + 310.0));
}

TEST(PhiAccrual, PhiGrowsWithSilence) {
  PhiAccrualDetector d(PhiAccrualParams{});
  for (int i = 0; i < 20; ++i) {
    d.on_heartbeat(100.0 * i);
  }
  const double now = 1900.0;
  EXPECT_LT(d.phi(now + 50.0), d.phi(now + 300.0));
  EXPECT_LT(d.phi(now + 300.0), d.phi(now + 800.0));
}

TEST(PhiAccrual, ThresholdGatesSuspicion) {
  PhiAccrualParams params;
  params.threshold = 3.0;
  PhiAccrualDetector d(params);
  for (int i = 0; i < 20; ++i) {
    d.on_heartbeat(100.0 * i);
  }
  EXPECT_FALSE(d.suspects(1950.0));
  EXPECT_TRUE(d.suspects(3000.0));
}

}  // namespace
}  // namespace rfd::rt
