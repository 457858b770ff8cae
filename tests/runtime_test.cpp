// Runtime-layer tests: the event queue, the network model, the three
// timeout detectors' core behaviours (completeness after a crash, eventual
// accuracy after stabilization, the accuracy/speed trade), QoS metrics,
// and the group membership emulation of P.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "runtime/detectors.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/membership.hpp"
#include "runtime/network.hpp"
#include "runtime/qos.hpp"

namespace rfd::rt {
namespace {

/// Reference implementation of the queue's semantics: a plain binary
/// heap of (at, seq) entries with none of EventQueue's own code.
/// EventQueue must produce exactly this firing order on any workload.
class ReferenceQueue {
 public:
  void schedule(double at, std::function<void()> action) {
    if (at < now_) at = now_;
    heap_.push({at, next_seq_++, std::move(action)});
  }
  void schedule_in(double delay, std::function<void()> action) {
    schedule(now_ + delay, std::move(action));
  }
  double now() const { return now_; }
  std::int64_t executed() const { return executed_; }
  void run_until(double t_end) {
    while (!heap_.empty() && heap_.top().at <= t_end) {
      Entry e{heap_.top().at, heap_.top().seq,
              std::move(const_cast<Entry&>(heap_.top()).action)};
      heap_.pop();
      now_ = e.at;
      ++executed_;
      e.action();
    }
    now_ = t_end;
  }

 private:
  struct Entry {
    double at;
    std::int64_t seq;
    std::function<void()> action;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  double now_ = 0.0;
  std::int64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
};

/// Seeded random workload: `timers` periodic timers with jittered periods,
/// each firing chains of short-delay one-shots - the heartbeat/delivery
/// mix of the cluster engine. Records (id, fire-time) per execution.
template <typename Queue>
std::vector<std::pair<int, double>> trace_workload(Queue& q,
                                                   std::uint64_t seed,
                                                   int timers,
                                                   double horizon) {
  std::vector<std::pair<int, double>> trace;
  std::vector<Rng> rngs;
  const Rng base(seed);
  rngs.reserve(static_cast<std::size_t>(timers));
  std::function<void(int)> tick = [&](int i) {
    trace.emplace_back(i, q.now());
    Rng& rng = rngs[static_cast<std::size_t>(i)];
    const double jitter = rng.uniform01() * 9.5;
    q.schedule_in(jitter, [&trace, &q, i] {
      trace.emplace_back(1000 + i, q.now());
    });
    q.schedule_in(40.0 + rng.uniform01() * 120.0, [&tick, i] { tick(i); });
  };
  for (int i = 0; i < timers; ++i) {
    rngs.push_back(base.split(static_cast<std::uint64_t>(i)));
    q.schedule(rngs.back().uniform01() * 100.0, [&tick, i] { tick(i); });
  }
  q.run_until(horizon);
  return trace;
}

TEST(EventQueue, DeterministicAgainstReferenceHeap) {
  // Same seed => identical event sequence and executed() count on
  // EventQueue and on the reference heap above. This is the bit-for-bit
  // guarantee the E8, E9 and E12b tables rely on.
  EventQueue current;
  ReferenceQueue reference;
  const auto got = trace_workload(current, 0xd5, 64, 3'000.0);
  const auto want = trace_workload(reference, 0xd5, 64, 3'000.0);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(current.executed(), reference.executed());
  EXPECT_DOUBLE_EQ(current.now(), reference.now());
}

TEST(EventQueue, SameSeedSameTraceAcrossRuns) {
  EventQueue a;
  EventQueue b;
  EXPECT_EQ(trace_workload(a, 7, 32, 2'000.0),
            trace_workload(b, 7, 32, 2'000.0));
  EXPECT_EQ(a.executed(), b.executed());
}

TEST(EventQueue, WheelCascadeAtBucketBoundaries) {
  // With tick_ms = 1 the level-0 wheel spans 256 ticks and level 1 spans
  // 65536; events straddling those boundaries (and one beyond the whole
  // wheel range, taking the far-future heap fallback) must still fire in
  // exact (at, seq) order regardless of insertion order.
  EventQueue q;
  std::vector<double> fired;
  const std::vector<double> times = {
      255.0, 256.0, 257.0,             // level-0 -> level-1 boundary
      65'535.0, 65'536.0, 65'537.0,    // level-1 -> level-2 boundary
      16'777'216.5,                    // past the wheel: heap fallback
      255.5, 0.25, 256.0,              // duplicates tiebreak by seq
  };
  std::vector<double> want = times;
  std::sort(want.begin(), want.end());
  // Adversarial insertion order: far-future first, then descending.
  std::vector<double> insert = times;
  std::sort(insert.begin(), insert.end(), std::greater<>());
  for (const double at : insert) {
    q.schedule(at, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run_until(17'000'000.0);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(q.executed(), static_cast<std::int64_t>(times.size()));
}

TEST(EventQueue, CascadeRefilesIntoFinerLevels) {
  // An event deep in level 2 must survive two cascades (level 2 -> 1 -> 0)
  // and interleave correctly with events scheduled later but due sooner,
  // including ones created while the run is in flight.
  EventQueue q;
  std::vector<int> order;
  q.schedule(70'000.0, [&] { order.push_back(2); });
  q.schedule(100'000.0, [&] { order.push_back(3); });
  q.schedule(10.0, [&] {
    order.push_back(1);
    q.schedule_in(99'990.0 - 10.0, [&] { order.push_back(4); });  // ties 3? no: 99'990
  });
  q.run_until(200'000.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(EventQueue, SchedulingInThePastClampsToNow) {
  // Regression: the old core silently accepted at < now(), which let an
  // event run "before" the current clock (its timestamp lied). The clamp
  // runs it at now(), after events already pending at now(), preserving
  // (at, seq) order.
  EventQueue q;
  std::vector<int> order;
  double late_ran_at = -1.0;
  q.schedule(50.0, [&] {
    order.push_back(1);
    q.schedule(50.0, [&] { order.push_back(2); });  // pending at now()
    q.schedule(25.0, [&] {  // in the past: must clamp to t=50
      order.push_back(3);
      late_ran_at = q.now();
    });
  });
  q.run_until(100.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(late_ran_at, 50.0);
  EXPECT_DOUBLE_EQ(q.now(), 100.0);

  // schedule_in with a negative delay (float drift) takes the same clamp.
  EventQueue q2;
  bool ran = false;
  q2.run_until(10.0);
  q2.schedule_in(-5.0, [&] { ran = true; });
  q2.run_until(10.0);  // no-op: nothing pending before t=10... except the clamp
  EXPECT_TRUE(ran);
  EXPECT_EQ(q2.executed(), 1);
}

TEST(EventQueue, SizeTracksPendingAndPeak) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.schedule(static_cast<double>(i + 1), [] {});
  }
  EXPECT_EQ(q.size(), 10u);
  q.run_until(100.0);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.executed(), 10);
}

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10.0, [&] { order.push_back(2); });
  q.schedule(5.0, [&] { order.push_back(1); });
  q.schedule(10.0, [&] { order.push_back(3); });  // same time: FIFO by seq
  q.run_until(20.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 20.0);
}

TEST(EventQueue, ActionsCanSchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) q.schedule_in(1.0, tick);
  };
  q.schedule(0.0, tick);
  q.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, StopsAtBoundary) {
  EventQueue q;
  bool late = false;
  q.schedule(50.0, [&] { late = true; });
  q.run_until(49.0);
  EXPECT_FALSE(late);
  q.run_until(51.0);
  EXPECT_TRUE(late);
}

TEST(Network, DelaysAreAtLeastMinimum) {
  NetworkParams params;
  params.min_delay_ms = 2.0;
  Network net(1, params);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(net.sample_delay(0.0), 2.0);
  }
}

TEST(Network, LossRateApproximates) {
  EventQueue q;
  NetworkParams params;
  params.loss_prob = 0.25;
  Network net(2, params);
  int delivered = 0;
  for (int i = 0; i < 4000; ++i) {
    if (const auto delay = net.route(0, 1, q.now())) {
      q.schedule_in(*delay, [&] { ++delivered; });
    }
  }
  q.run_until(1e9);
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

TEST(FixedTimeout, SuspectsAfterSilence) {
  FixedTimeoutDetector d(FixedTimeoutParams{200.0});
  d.on_heartbeat(1000.0);
  EXPECT_FALSE(d.suspects(1100.0));
  EXPECT_TRUE(d.suspects(1300.0));
  d.on_heartbeat(1350.0);  // trust restored
  EXPECT_FALSE(d.suspects(1400.0));
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

TEST(Qos, CrashIsDetected) {
  QosConfig config;
  config.detector.kind = DetectorKind::kChen;
  config.crash_at_ms = 20'000.0;
  config.duration_ms = 30'000.0;
  const QosResult r = run_qos_experiment(config, 1);
  ASSERT_TRUE(r.crashed);
  EXPECT_GE(r.detection_time_ms, 0.0);
  EXPECT_LT(r.detection_time_ms, 2000.0);
}

TEST(Qos, NoCrashNoDetection) {
  QosConfig config;
  config.crash_at_ms = -1.0;
  config.duration_ms = 15'000.0;
  const QosResult r = run_qos_experiment(config, 2);
  EXPECT_FALSE(r.crashed);
  EXPECT_LT(r.detection_time_ms, 0.0);
}

TEST(Qos, TightTimeoutTradesAccuracyForSpeed) {
  // The fundamental QoS trade: a short fixed timeout detects faster but
  // makes more mistakes on a jittery network than a long one.
  QosConfig tight;
  tight.detector.kind = DetectorKind::kFixed;
  tight.detector.fixed.timeout_ms = 120.0;
  tight.network.jitter_sigma = 1.2;
  tight.network.loss_prob = 0.05;
  QosConfig loose = tight;
  loose.detector.fixed.timeout_ms = 900.0;

  const QosAggregate a = run_qos_sweep(tight, 3, 10);
  const QosAggregate b = run_qos_sweep(loose, 3, 10);
  EXPECT_GT(a.mistake_rate_per_s.mean(), b.mistake_rate_per_s.mean());
  EXPECT_LT(a.detection_time_ms.mean(), b.detection_time_ms.mean());
}

TEST(Qos, LossyNetworkHurtsFixedTimeout) {
  QosConfig clean;
  clean.detector.kind = DetectorKind::kFixed;
  clean.detector.fixed.timeout_ms = 150.0;
  QosConfig lossy = clean;
  lossy.network.loss_prob = 0.3;
  const QosAggregate a = run_qos_sweep(clean, 5, 8);
  const QosAggregate b = run_qos_sweep(lossy, 5, 8);
  EXPECT_LE(a.mistake_rate_per_s.mean(), b.mistake_rate_per_s.mean());
}

TEST(Membership, CrashedNodeIsExcluded) {
  MembershipConfig config;
  config.n = 5;
  config.crash_at_ms = std::vector<double>(5, -1.0);
  config.crash_at_ms[3] = 10'000.0;
  config.duration_ms = 30'000.0;
  const MembershipResult r = run_membership_experiment(config, 1);
  EXPECT_GE(r.exclusions, 1);
  EXPECT_EQ(r.false_exclusions, 0);
  EXPECT_TRUE(r.converged) << r.final_view;
  EXPECT_TRUE(r.suspicions_accurate);
  EXPECT_GT(r.exclusion_latency_ms.count(), 0);
}

TEST(Membership, CoordinatorCrashTriggersFailover) {
  MembershipConfig config;
  config.n = 5;
  config.crash_at_ms = std::vector<double>(5, -1.0);
  config.crash_at_ms[0] = 8'000.0;  // the initial coordinator dies
  config.duration_ms = 30'000.0;
  const MembershipResult r = run_membership_experiment(config, 2);
  EXPECT_TRUE(r.converged) << r.final_view;
  EXPECT_NE(r.final_view.find("{1"), std::string::npos) << r.final_view;
}

TEST(Membership, AggressiveTimeoutsSacrificeLiveNodes) {
  // The cost of emulating P: with hair-trigger timeouts on a jittery
  // pre-GST network, live nodes get excluded - and then halt, making every
  // suspicion "accurate" exactly as the paper describes.
  MembershipConfig config;
  config.n = 6;
  config.detector.kind = DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 110.0;
  config.network.jitter_sigma = 1.0;
  config.network.gst_ms = 20'000.0;
  config.network.pre_gst_extra_ms = 400.0;
  config.network.pre_gst_chaos_prob = 0.5;
  config.duration_ms = 40'000.0;
  std::int64_t false_exclusions = 0;
  bool all_accurate = true;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const MembershipResult r = run_membership_experiment(config, seed);
    false_exclusions += r.false_exclusions;
    all_accurate = all_accurate && r.suspicions_accurate;
  }
  EXPECT_GT(false_exclusions, 0);
  EXPECT_TRUE(all_accurate);
}

TEST(Membership, StableNetworkKeepsEveryone) {
  MembershipConfig config;
  config.n = 5;
  config.detector.kind = DetectorKind::kChen;
  config.duration_ms = 20'000.0;
  const MembershipResult r = run_membership_experiment(config, 7);
  EXPECT_EQ(r.exclusions, 0);
  EXPECT_TRUE(r.converged) << r.final_view;
}

}  // namespace
}  // namespace rfd::rt
