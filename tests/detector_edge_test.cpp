// Edge-case coverage for the timeout detectors: behaviour before the
// first heartbeat, warm-up with partially filled windows, and the
// zero-variance clamp in the phi-accrual detector (min_stddev_ms) - the
// corners a long steady-state run never visits but every deployment hits
// at process start and on perfectly regular heartbeat sources.
#include <gtest/gtest.h>

#include <cmath>

#include "runtime/detectors.hpp"

namespace rfd::rt {
namespace {

// ---------------------------------------------------------------- phi

TEST(PhiEdge, BeforeFirstHeartbeatUsesFallbackWindow) {
  PhiAccrualParams params;
  params.fallback_timeout_ms = 800.0;
  PhiAccrualDetector d(params);
  EXPECT_DOUBLE_EQ(d.phi(500.0), 0.0);   // no evidence, no suspicion level
  EXPECT_FALSE(d.suspects(0.0));
  EXPECT_FALSE(d.suspects(799.0));
  EXPECT_TRUE(d.suspects(801.0));        // grace from time 0 expired
}

TEST(PhiEdge, SingleHeartbeatFallsBackFromThatArrival) {
  PhiAccrualParams params;
  params.fallback_timeout_ms = 800.0;
  PhiAccrualDetector d(params);
  d.on_heartbeat(700.0);
  // One arrival yields no interval sample; the fallback window restarts
  // at the arrival instead of accusing the peer of pre-start silence.
  EXPECT_DOUBLE_EQ(d.phi(900.0), 0.0);
  EXPECT_FALSE(d.suspects(900.0));
  EXPECT_FALSE(d.suspects(1'400.0));
  EXPECT_TRUE(d.suspects(1'501.0));
}

TEST(PhiEdge, ZeroVarianceClampKeepsPhiFinite) {
  // Perfectly periodic heartbeats drive the sample variance to exactly
  // zero; without the min_stddev_ms floor the z-score would blow up the
  // moment `elapsed` exceeds the mean. The clamp must keep phi finite,
  // monotone in silence, and eventually suspicious.
  PhiAccrualParams params;
  params.min_stddev_ms = 10.0;
  params.threshold = 8.0;
  PhiAccrualDetector d(params);
  for (int i = 0; i <= 20; ++i) {
    d.on_heartbeat(100.0 * i);  // constant 100ms intervals, variance 0
  }
  const double last = 2'000.0;
  EXPECT_FALSE(d.suspects(last + 100.0));  // on schedule: still trusted
  const double phi_short = d.phi(last + 120.0);
  const double phi_mid = d.phi(last + 150.0);
  const double phi_long = d.phi(last + 250.0);
  EXPECT_TRUE(std::isfinite(phi_short));
  EXPECT_TRUE(std::isfinite(phi_mid));
  EXPECT_TRUE(std::isfinite(phi_long));
  EXPECT_LT(phi_short, phi_mid);
  EXPECT_LT(phi_mid, phi_long);
  EXPECT_TRUE(d.suspects(last + 250.0));  // z = 15 sigmas: phi >> 8
}

TEST(PhiEdge, LargerStddevFloorIsMoreLenient) {
  PhiAccrualParams tight;
  tight.min_stddev_ms = 10.0;
  PhiAccrualParams loose = tight;
  loose.min_stddev_ms = 200.0;
  PhiAccrualDetector dt(tight);
  PhiAccrualDetector dl(loose);
  for (int i = 0; i <= 20; ++i) {
    dt.on_heartbeat(100.0 * i);
    dl.on_heartbeat(100.0 * i);
  }
  EXPECT_GT(dt.phi(2'250.0), dl.phi(2'250.0));
}

// --------------------------------------------------------------- chen

TEST(ChenEdge, NoHeartbeatsUsesFallbackFromStart) {
  ChenAdaptiveParams params;
  params.fallback_timeout_ms = 600.0;
  ChenAdaptiveDetector d(params);
  EXPECT_FALSE(d.suspects(599.0));
  EXPECT_TRUE(d.suspects(601.0));
  EXPECT_LT(d.expected_arrival(), 0.0);  // no estimate yet
}

TEST(ChenEdge, SingleArrivalFallsBackFromThatArrival) {
  ChenAdaptiveParams params;
  params.fallback_timeout_ms = 600.0;
  ChenAdaptiveDetector d(params);
  d.on_heartbeat(1'000.0);
  EXPECT_LT(d.expected_arrival(), 0.0);  // still no inter-arrival sample
  EXPECT_FALSE(d.suspects(1'500.0));
  EXPECT_TRUE(d.suspects(1'601.0));
}

TEST(ChenEdge, PartiallyFilledWindowEstimatesFromWhatItHas) {
  ChenAdaptiveParams params;
  params.window = 16;  // only 3 of 16 slots will be filled
  params.alpha_ms = 50.0;
  ChenAdaptiveDetector d(params);
  d.on_heartbeat(0.0);
  d.on_heartbeat(100.0);
  d.on_heartbeat(200.0);
  // EA extrapolates the mean inter-arrival of the partial window.
  EXPECT_DOUBLE_EQ(d.expected_arrival(), 300.0);
  EXPECT_FALSE(d.suspects(349.0));
  EXPECT_TRUE(d.suspects(351.0));
}

TEST(ChenEdge, WarmupTransitionsSmoothlyIntoAdaptiveMode) {
  // Two arrivals are enough to leave fallback mode; the estimate then
  // refines as the window fills instead of jumping.
  ChenAdaptiveParams params;
  params.window = 8;
  params.alpha_ms = 100.0;
  ChenAdaptiveDetector d(params);
  d.on_heartbeat(0.0);
  d.on_heartbeat(120.0);
  EXPECT_DOUBLE_EQ(d.expected_arrival(), 240.0);
  d.on_heartbeat(220.0);  // a faster arrival pulls the period estimate down
  EXPECT_DOUBLE_EQ(d.expected_arrival(), 330.0);
  EXPECT_FALSE(d.suspects(420.0));
  EXPECT_TRUE(d.suspects(440.0));
}

}  // namespace
}  // namespace rfd::rt
