#include "runtime/qos.hpp"

#include <functional>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "runtime/event_queue.hpp"

namespace rfd::rt {

QosResult run_qos_experiment(const QosConfig& config, std::uint64_t seed) {
  EventQueue queue;
  Network network(mix_seed(seed, 0x9051), config.network);
  auto detector = make_detector(config.detector);

  const bool peer_crashes =
      config.crash_at_ms > 0.0 && config.crash_at_ms < config.duration_ms;

  QosResult result;
  result.crashed = peer_crashes;

  // Heartbeat pump: the peer (node 1) sends to the monitor (node 0) until
  // it crashes.
  double last_arrival = -1.0;
  std::function<void()> pump = [&] {
    const double now = queue.now();
    if (peer_crashes && now >= config.crash_at_ms) return;
    if (const std::optional<double> delay = network.route(1, 0, now)) {
      queue.schedule_in(*delay, [&] {
        const double at = queue.now();
        detector->on_heartbeat(at);
        if (config.trace != nullptr) {
          obs::Record r;
          r.type = obs::RecordType::kArrival;
          r.t = at;
          r.a = static_cast<std::int32_t>(config.trace_run_id);
          r.x = last_arrival >= 0.0 ? at - last_arrival : 0.0;
          config.trace->emit(r);
        }
        last_arrival = at;
      });
    }
    queue.schedule_in(config.heartbeat_interval_ms, pump);
  };
  queue.schedule(0.0, pump);

  // Polling loop: observe the detector on a fine grid.
  bool prev_suspect = false;
  double mistake_started = -1.0;
  double mistake_total = 0.0;
  std::int64_t polls_pre_crash = 0;
  std::int64_t correct_pre_crash = 0;
  double first_stable_suspicion = -1.0;

  std::function<void()> poll = [&] {
    const double now = queue.now();
    const bool suspect = detector->suspects(now);
    const bool peer_alive = !peer_crashes || now < config.crash_at_ms;

    if (config.trace != nullptr && suspect != prev_suspect) {
      obs::Record r;
      r.type = obs::RecordType::kVerdict;
      r.t = now;
      r.a = static_cast<std::int32_t>(config.trace_run_id);
      r.c = suspect ? 1 : 0;
      config.trace->emit(r);
    }

    if (peer_alive) {
      ++polls_pre_crash;
      if (!suspect) ++correct_pre_crash;
      if (suspect && !prev_suspect) {
        ++result.false_transitions;
        mistake_started = now;
      }
      if (!suspect && prev_suspect && mistake_started >= 0.0) {
        mistake_total += now - mistake_started;
        mistake_started = -1.0;
      }
    } else {
      if (suspect && first_stable_suspicion < 0.0) {
        first_stable_suspicion = now;
      }
      if (!suspect) {
        first_stable_suspicion = -1.0;  // retracted: not stable yet
      }
    }
    prev_suspect = suspect;
    if (now + config.poll_interval_ms <= config.duration_ms) {
      queue.schedule_in(config.poll_interval_ms, poll);
    }
  };
  queue.schedule(0.0, poll);

  queue.run_until(config.duration_ms);

  // Close an open mistake period at the crash boundary.
  if (mistake_started >= 0.0 && peer_crashes) {
    mistake_total += config.crash_at_ms - mistake_started;
  }

  const double pre_crash_span =
      peer_crashes ? config.crash_at_ms : config.duration_ms;
  result.mistake_rate_per_s =
      pre_crash_span > 0.0
          ? static_cast<double>(result.false_transitions) /
                (pre_crash_span / 1000.0)
          : 0.0;
  result.avg_mistake_duration_ms =
      result.false_transitions > 0
          ? mistake_total / static_cast<double>(result.false_transitions)
          : 0.0;
  result.query_accuracy =
      polls_pre_crash > 0 ? static_cast<double>(correct_pre_crash) /
                                static_cast<double>(polls_pre_crash)
                          : 1.0;
  if (peer_crashes && first_stable_suspicion >= 0.0) {
    result.detection_time_ms = first_stable_suspicion - config.crash_at_ms;
  }
  result.heartbeats_sent = network.sent();
  result.heartbeats_lost = network.dropped();
  return result;
}

QosAggregate run_qos_sweep(const QosConfig& config, std::uint64_t seed,
                           int runs) {
  RFD_REQUIRE(runs > 0);
  QosAggregate agg;
  for (int i = 0; i < runs; ++i) {
    QosConfig run_config = config;
    // Each seeded run gets its own id so sweeps can share one stream.
    run_config.trace_run_id = config.trace_run_id + i;
    const QosResult r = run_qos_experiment(
        run_config, mix_seed(seed, static_cast<std::uint64_t>(i)));
    if (r.crashed) {
      if (r.detection_time_ms >= 0.0) {
        agg.detection_time_ms.add(r.detection_time_ms);
      } else {
        ++agg.undetected_crashes;
      }
    }
    agg.mistake_rate_per_s.add(r.mistake_rate_per_s);
    agg.avg_mistake_duration_ms.add(r.avg_mistake_duration_ms);
    agg.query_accuracy.add(r.query_accuracy);
  }
  return agg;
}

}  // namespace rfd::rt
