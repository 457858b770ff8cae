// End-to-end benchmark runner: one workload per process, closed loop.
//
//   bench_end2end --workload <name> [--seed <n>] [--seconds <s>]
//                 [--trace 0|1] [--out <dir>] [--scenarios <dir>]
//
// A run repeats the workload's pass - a fixed unit of work built from
// --seed - until --seconds have elapsed (at least kMinPasses times), and
// between passes times the workload's set-up, kSetupShare of the time
// elapsed and at least kSetupReps times. It checks the outputs of every
// pass, and prints one
// `name unit median q1 q3 count` line per metric followed by a JSON
// result line {"correct", "attempted", "failed", "metrics"}. Only calls
// into the library's public entry points are timed: cluster::run_cluster,
// cluster::load_scenario_file, transport::run_soak,
// core::evaluate_algorithm and Transport::send/poll.
//
// --trace 0 reports the end-to-end metrics. --trace 1 interleaves plain
// passes with profiled ones (obs.profile on where the layer has it, the
// benchmark's own spans recorded in memory and written to
// <out>/<workload>/spans-<workload>.jsonl at the end) and reports the
// per-layer metrics plus the tracing overhead. README.md documents the
// workloads, the metrics and which layer metric should move which
// end-to-end one.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/scenario_dsl.hpp"
#include "common/cli.hpp"
#include "core/solvability.hpp"
#include "model/environment.hpp"
#include "transport/flaky.hpp"
#include "transport/soak.hpp"
#include "transport/udp.hpp"

namespace rfd::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 7;
constexpr double kSetupShare = 0.1;
constexpr int kMinPasses = 2;
constexpr std::uint64_t kGoldenSeed = 20020623;

// ------------------------------------------------------------ measurement

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The benchmark's own spans (name, start, end, parent), kept in memory
/// and written out when the run ends. Disabled under --trace 0, so the
/// end-to-end numbers are measured without them.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int begin(std::string name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), since_origin(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ms = since_origin();
    open_.pop_back();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f,\"parent\":%d}\n",
                   i, s.name.c_str(), s.start_ms, s.end_ms, s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start_ms;
    double end_ms;
    int parent;
  };

  double since_origin() const { return ms_between(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Wall and CPU time spent inside calls to the library's entry points;
/// nothing else a pass does (building inputs, checking outputs) counts.
struct CallTime {
  double wall_ms = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double cpu_ms() const { return (user_s + sys_s) * 1e3; }
};

/// Times one entry-point call into `acc` under a span named `name` and
/// returns its wall time in ms.
template <typename Fn>
double timed_call(CallTime& acc, SpanLog& spans, std::string name, Fn&& fn) {
  const ScopedSpan span(spans, std::move(name));
  const CpuTimes c0 = cpu_times();
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  const CpuTimes c1 = cpu_times();
  const double ms = ms_between(t0, t1);
  acc.wall_ms += ms;
  acc.user_s += c1.user_s - c0.user_s;
  acc.sys_s += c1.sys_s - c0.sys_s;
  return ms;
}

// --------------------------------------------------------------- workloads

/// Per-layer metric values of one traced pass, by metric name.
using Layers = std::map<std::string, double>;

enum class Mode {
  kPlain,     // the workload as a user runs it
  kProfiled,  // the same pass with the layers' own profiling on
  kVariant,   // a differential twin (trace off, checkpoints off)
};

struct Pass {
  CallTime time;
  /// Deterministic outputs; every pass of one mode must reproduce it.
  std::string fingerprint;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks

  void require(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up: the work before the workload's first result.
  virtual void setup(SpanLog& spans, CallTime& time) = 0;
  /// One pass. `layers` is non-null in traced runs; each mode fills the
  /// per-layer metrics it measures.
  virtual Pass pass(SpanLog& spans, Mode mode, Layers* layers) = 0;
  /// Per-layer metric fed by median(plain) - median(variant) pass wall
  /// time, or nullptr when the workload has no variant.
  virtual const char* variant_metric() const { return nullptr; }
  /// Per-layer metric the set-up time reports under, or nullptr.
  virtual const char* setup_metric() const { return nullptr; }
  /// Untimed checks against pinned reference outputs, run once.
  virtual void reference_checks(std::vector<Pass>& out) { (void)out; }
  /// One-off per-layer probes, run after the traced passes.
  virtual void probes(SpanLog& spans, Layers& layers, Pass& checks) {
    (void)spans;
    (void)layers;
    (void)checks;
  }
};

std::string report_fingerprint(const cluster::ClusterReport& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.n << '|' << r.messages_sent << '|' << r.messages_dropped << '|'
     << r.partition_dropped << '|' << r.digest_entries_sent << '|'
     << r.digest_payload_bytes << '|' << r.events_executed << '|'
     << r.peak_event_queue << '|' << r.detection_latency_ms.count() << '|'
     << r.detection_latency_ms.mean() << '|' << r.detection_latency_ms.max()
     << '|' << r.missed_detections << '|' << r.false_suspicions << '|'
     << r.convergence_ms.count() << '|' << r.convergence_ms.mean() << '|'
     << r.disruptions << '|' << r.final_agreement << '|'
     << r.suspicion_raises << '|' << r.suspicion_clears;
  return fnv1a_hex(ss.str());
}

void add_qos_layers(const Summary& detection, std::int64_t false_suspicions,
                    std::int64_t missed, Layers& layers) {
  const bool any = detection.count() > 0;
  layers["qos.detect_p50_ms"] = any ? detection.percentile(0.5) : 0.0;
  layers["qos.detect_p99_ms"] = any ? detection.percentile(0.99) : 0.0;
  layers["qos.detect_samples"] = static_cast<double>(detection.count());
  layers["qos.false_suspicions"] = static_cast<double>(false_suspicions);
  layers["qos.missed"] = static_cast<double>(missed);
}

/// Phase-timer rollups of a profiled engine run, by phase name.
void add_phase_layers(const cluster::ClusterReport& r, double span_ms,
                      int shards, Layers& layers) {
  std::map<std::string, obs::PhaseStat> phase;
  for (const obs::PhaseStat& stat : r.profile) phase[stat.phase] = stat;
  const auto ms = [&](const char* p) { return phase[p].est_ms; };
  const auto calls = [&](const char* p) {
    return static_cast<double>(phase[p].calls);
  };
  layers["runtime.events"] = static_cast<double>(r.events_executed);
  layers["runtime.peak_queue"] = static_cast<double>(r.peak_event_queue);
  layers["runtime.dispatch_ms"] = ms("dispatch");
  layers["runtime.dispatch_calls"] = calls("dispatch");
  // EventQueue dispatch runs the heartbeat pumps, which select digests
  // and route messages: its self time excludes both.
  layers["runtime.dispatch_self_ms"] =
      ms("dispatch") - ms("digest") - ms("route");
  layers["runtime.route_ms"] = ms("route");
  layers["runtime.route_calls"] = calls("route");
  layers["runtime.sync_wait_ms"] = ms("sync");
  layers["runtime.sync_meets"] = calls("sync");
  layers["cluster.observe_ms"] = ms("observe");
  layers["cluster.observe_calls"] = calls("observe");
  layers["cluster.digest_ms"] = ms("digest");
  layers["cluster.digest_calls"] = calls("digest");
  layers["cluster.msgs_sent"] = static_cast<double>(r.messages_sent);
  layers["cluster.digest_entries"] =
      static_cast<double>(r.digest_entries_sent);
  layers["cluster.payload_bytes"] = static_cast<double>(r.digest_payload_bytes);
  // Phase times are summed over shards, so the engine's own time is the
  // run_cluster span times the shard count, minus every timed phase.
  layers["cluster.engine_self_ms"] = span_ms * shards - ms("dispatch") -
                                     ms("observe") - ms("sync");
}

// The E12/E13 gossip fabric: detector timeout tracking the dissemination
// cadence, a crash wave of n/64 nodes at 40% of the horizon.
cluster::ClusterConfig gossip_config(int n, int shards, double duration_ms) {
  constexpr double kIntervalMs = 250.0;
  cluster::ClusterConfig config;
  config.n = n;
  config.shards = shards;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.digest_size = std::max(32, n / 8);
  config.heartbeat_interval_ms = kIntervalMs;
  config.check_interval_ms = 50.0;
  config.detector.kind = rt::DetectorKind::kFixed;
  const double per_round =
      static_cast<double>(config.topology.gossip_fanout) *
      config.topology.digest_size;
  const double gap_ms = kIntervalMs * std::max(1.0, n / per_round);
  config.detector.fixed.timeout_ms = std::max(1'000.0, 12.0 * gap_ms);
  config.bootstrap_grace_ms =
      std::max(1500.0, config.detector.fixed.timeout_ms);
  config.duration_ms = duration_ms;
  config.scenario =
      cluster::multi_crash_scenario(n, std::max(1, n / 64), duration_ms * 0.4);
  return config;
}

class GossipWorkload final : public Workload {
 public:
  GossipWorkload(int n, int shards, double duration_ms, std::uint64_t seed)
      : config_(gossip_config(n, shards, duration_ms)), seed_(seed) {}

  void setup(SpanLog& spans, CallTime& time) override {
    cluster::ClusterConfig config = config_;
    config.duration_ms = config.check_interval_ms;
    timed_call(time, spans, "cluster::run_cluster",
               [&] { cluster::run_cluster(config, seed_); });
  }

  Pass pass(SpanLog& spans, Mode mode, Layers* layers) override {
    cluster::ClusterConfig config = config_;
    config.obs.profile = mode == Mode::kProfiled;
    cluster::ClusterReport r;
    Pass p;
    const double span_ms =
        timed_call(p.time, spans, "cluster::run_cluster",
                   [&] { r = cluster::run_cluster(config, seed_); });
    // This fabric is tuned for throughput, not accuracy: it does raise
    // false suspicions and miss late crashes, so the check is that every
    // (live observer, victim) pair is accounted for exactly once.
    const int crashes = std::max(1, config_.n / 64);
    const std::int64_t pairs =
        static_cast<std::int64_t>(crashes) * (config_.n - crashes);
    const std::int64_t accounted =
        r.detection_latency_ms.count() + r.missed_detections;
    p.require(accounted == pairs, "detected + missed " +
                                      std::to_string(accounted) + " != " +
                                      std::to_string(pairs));
    p.require(r.false_suspicions <= r.suspicion_raises,
              "more false suspicions than raises");
    p.fingerprint = report_fingerprint(r);
    p.attempted = 1;
    p.failed = p.errors.empty() ? 0 : 1;
    if (layers != nullptr && mode == Mode::kProfiled) {
      add_phase_layers(r, span_ms, config_.shards, *layers);
      add_qos_layers(r.detection_latency_ms, r.false_suspicions,
                     r.missed_detections, *layers);
    }
    return p;
  }

  const char* setup_metric() const override { return "cluster.setup_ms"; }

 private:
  cluster::ClusterConfig config_;
  std::uint64_t seed_;
};

/// All scenarios/*.scn files under the reference configuration their
/// GOLDEN.txt trace digests are pinned against, traces written to disk.
class ScenarioLibraryWorkload final : public Workload {
 public:
  ScenarioLibraryWorkload(const std::string& scenario_dir,
                          const std::string& out_dir, std::uint64_t seed)
      : dir_(scenario_dir), trace_dir_(out_dir + "/traces"), seed_(seed) {
    fs::create_directories(trace_dir_);
    std::istringstream in(read_file(dir_ + "/GOLDEN.txt"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string digest, file;
      if (fields >> digest >> file) golden_.emplace_back(file, digest);
    }
    if (golden_.empty()) {
      throw std::runtime_error("no pinned digests in " + dir_ +
                               "/GOLDEN.txt");
    }
    SpanLog no_spans(false);
    CallTime unused;
    load_all(no_spans, unused);
  }

  void setup(SpanLog& spans, CallTime& time) override {
    load_all(spans, time);
  }

  Pass pass(SpanLog& spans, Mode mode, Layers* layers) override {
    return run_all(spans, mode, layers, seed_);
  }

  /// Passes at the golden seed check every digest against GOLDEN.txt;
  /// this runs the library once there, so every run checks the pinned
  /// behaviour whatever --seed it measures.
  void reference_checks(std::vector<Pass>& out) override {
    if (seed_ == kGoldenSeed) return;
    SpanLog no_spans(false);
    out.push_back(run_all(no_spans, Mode::kPlain, nullptr, kGoldenSeed));
  }

  const char* variant_metric() const override { return "obs.trace_ms"; }
  const char* setup_metric() const override {
    return "cluster.scenario_parse_ms";
  }

 private:
  void load_all(SpanLog& spans, CallTime& time) {
    docs_.clear();
    for (const auto& [file, digest] : golden_) {
      cluster::ScenarioDoc doc;
      cluster::DslError err;
      bool ok = false;
      timed_call(time, spans, "cluster::load_scenario_file", [&] {
        ok = cluster::load_scenario_file(dir_ + "/" + file,
                                         cluster::DslContext{}, doc, err);
      });
      if (!ok) {
        throw std::runtime_error(file + ": " + err.to_string());
      }
      docs_.push_back(std::move(doc));
    }
  }

  /// The golden reference configuration (tests/scenario_test_util.hpp).
  static cluster::ClusterConfig reference_config(
      const cluster::ScenarioDoc& doc) {
    cluster::ClusterConfig config;
    config.n = doc.n > 0 ? doc.n : 32;
    config.max_nodes = std::max({doc.max_nodes, config.n,
                                 static_cast<int>(doc.max_node_ref) + 1});
    config.topology.kind = cluster::TopologyKind::kGossip;
    config.topology.digest_size = 16;
    config.detector.kind = rt::DetectorKind::kChen;
    config.detector.chen.alpha_ms = 400.0;
    config.heartbeat_interval_ms = 100.0;
    config.check_interval_ms = 100.0;
    config.duration_ms = doc.duration_ms > 0.0 ? doc.duration_ms : 12'000.0;
    config.scenario = doc.scenario;
    return config;
  }

  Pass run_all(SpanLog& spans, Mode mode, Layers* layers,
               std::uint64_t seed) {
    Pass p;
    std::string digests;
    for (std::size_t i = 0; i < docs_.size(); ++i) {
      const auto& [file, golden] = golden_[i];
      cluster::ClusterConfig config = reference_config(docs_[i]);
      const std::string trace_path = trace_dir_ + "/" + file + ".jsonl";
      // The variant runs with the trace off, to cost it.
      if (mode != Mode::kVariant) {
        config.obs.trace_path = trace_path;
        config.obs.snapshot_every_ticks = 10;
      }
      config.obs.profile = mode == Mode::kProfiled;
      cluster::ClusterReport r;
      const double span_ms =
          timed_call(p.time, spans, "cluster::run_cluster " + file,
                     [&] { r = cluster::run_cluster(config, seed); });
      ++p.attempted;
      const std::size_t errors_before = p.errors.size();
      p.require(r.trace_dropped == 0, file + ": trace dropped records");
      if (mode == Mode::kPlain) {
        const std::string digest = fnv1a_hex(read_file(trace_path));
        digests += file + '=' + digest + ';';
        p.require(seed != kGoldenSeed || digest == golden,
                  file + ": trace digest " + digest + " != pinned " + golden);
      } else {
        // Profile records carry wall-clock times, so a profiled trace
        // has no stable digest; the report must still repeat.
        digests += file + '=' + report_fingerprint(r) + ';';
      }
      if (p.errors.size() != errors_before) ++p.failed;
      if (layers == nullptr) continue;
      Layers& l = *layers;
      if (mode == Mode::kPlain) {
        l["obs.trace_records"] += static_cast<double>(r.trace_records);
        l["obs.trace_bytes"] += static_cast<double>(fs::file_size(trace_path));
        l["obs.trace_dropped"] += static_cast<double>(r.trace_dropped);
      } else if (mode == Mode::kProfiled) {
        Layers one;
        add_phase_layers(r, span_ms, 1, one);
        for (const auto& [name, value] : one) {
          l[name] = name == "runtime.peak_queue" ? std::max(l[name], value)
                                                 : l[name] + value;
        }
      }
    }
    p.fingerprint = fnv1a_hex(digests);
    return p;
  }

  std::string dir_;
  std::string trace_dir_;
  std::uint64_t seed_;
  std::vector<std::pair<std::string, std::string>> golden_;  // file, digest
  std::vector<cluster::ScenarioDoc> docs_;
};

// The soak: n=256 real loopback UDP sockets behind FlakyTransport's 5%
// loss, soak_main's digest = n rule, a fixed 1 s timeout on a 100 ms
// grid, 4 crashes at 40% of the horizon, unpaced, checkpointing.
constexpr int kSoakN = 256;
constexpr int kSoakCrashes = 4;
constexpr double kSoakDurationMs = 24'000.0;
constexpr double kSoakCheckpointEveryMs = 6'000.0;
constexpr std::uint16_t kSoakPort = 41000;
constexpr std::uint16_t kProbePort = 41300;
// (live observer, victim) pairs the crash wave leaves.
constexpr std::int64_t kSoakPairs = kSoakCrashes * (kSoakN - kSoakCrashes);

class UdpSoakWorkload final : public Workload {
 public:
  UdpSoakWorkload(const std::string& out_dir, std::uint64_t seed)
      : checkpoint_path_(out_dir + "/soak.ckpt"),
        trace_path_(out_dir + "/soak-trace.jsonl") {
    config_.seed = seed;
    config_.n = kSoakN;
    config_.topology.kind = cluster::TopologyKind::kGossip;
    config_.topology.gossip_fanout = 3;
    config_.topology.digest_size = kSoakN;
    config_.detector.kind = rt::DetectorKind::kFixed;
    config_.detector.fixed.timeout_ms = 1'000.0;
    config_.tick_ms = 100.0;
    config_.duration_ms = kSoakDurationMs;
    config_.scenario = cluster::multi_crash_scenario(kSoakN, kSoakCrashes,
                                                     kSoakDurationMs * 0.4);
    config_.backend = transport::SoakBackend::kUdp;
    config_.flaky = true;
    config_.flaky_params.network.loss_prob = 0.05;
    config_.udp.base_port = kSoakPort;
    config_.time_scale = 0.0;
    config_.checkpoint_path = checkpoint_path_;
    config_.checkpoint_every_ms = kSoakCheckpointEveryMs;
  }

  void setup(SpanLog& spans, CallTime& time) override {
    transport::SoakConfig config = config_;
    config.duration_ms = config.tick_ms;
    config.checkpoint_path.clear();
    soak(spans, time, config);
  }

  Pass pass(SpanLog& spans, Mode mode, Layers* layers) override {
    transport::SoakConfig config = config_;
    if (mode == Mode::kVariant) config.checkpoint_path.clear();
    Pass p;
    const transport::SoakReport r = soak(spans, p.time, config, &p);
    const transport::TransportCounters& c = r.transport;
    // Every (live observer, victim) pair is detected exactly once, plus
    // the re-raises the traced reference run counted.
    p.require(r.missed == 0, "missed " + std::to_string(r.missed));
    p.require(r.detection.count() == kSoakPairs + reraises_,
              "detections " + std::to_string(r.detection.count()) +
                  " != pairs " + std::to_string(kSoakPairs) +
                  " + re-raises " + std::to_string(reraises_));
    p.require(c.queue_drops == 0 && c.sock_errors == 0,
              "queue_drops " + std::to_string(c.queue_drops) +
                  ", sock_errors " + std::to_string(c.sock_errors));
    p.attempted = c.sent;
    p.failed = c.queue_drops + c.sock_errors;
    // Real sockets make the delivery order timing-dependent; the
    // detection outcome is what must repeat.
    p.fingerprint = std::to_string(r.detection.count()) + '|' +
                    std::to_string(r.false_suspicions) + '|' +
                    std::to_string(r.missed) + '|' +
                    std::to_string(r.final_agreement);
    if (layers != nullptr && mode == Mode::kPlain) {
      Layers& l = *layers;
      l["transport.sent"] = static_cast<double>(c.sent);
      l["transport.delivered"] = static_cast<double>(c.delivered);
      l["transport.dropped"] = static_cast<double>(c.dropped);
      l["transport.queue_drops"] = static_cast<double>(c.queue_drops);
      l["transport.retries"] = static_cast<double>(c.retries);
      l["transport.sock_errors"] = static_cast<double>(c.sock_errors);
      l["transport.user_s"] = p.time.user_s;
      l["transport.sys_s"] = p.time.sys_s;
      l["transport.datagrams_per_s"] =
          static_cast<double>(c.sent) / (p.time.wall_ms / 1e3);
      l["transport.reraises"] = static_cast<double>(reraises_);
      l["transport.checkpoints"] = r.checkpoints_written;
      l["transport.checkpoint_bytes"] =
          static_cast<double>(fs::file_size(checkpoint_path_));
      add_qos_layers(r.detection, r.false_suspicions, r.missed, l);
    }
    return p;
  }

  const char* variant_metric() const override {
    return "transport.checkpoint_ms";
  }

  /// One untimed soak with the JSONL trace on. Its suspect records name
  /// each (observer, victim) pair, which the report does not: every pair
  /// must be detected, and raises beyond a pair's first are re-raises -
  /// a late counter advance cleared the first raise and the observer
  /// raised the pair again. The timed passes are then held to
  /// pairs + re-raises detections exactly.
  void reference_checks(std::vector<Pass>& out) override {
    transport::SoakConfig config = config_;
    config.checkpoint_path.clear();
    config.obs.trace_path = trace_path_;
    SpanLog no_spans(false);
    CallTime unused;
    Pass p;
    const transport::SoakReport r = soak(no_spans, unused, config, &p);
    std::set<std::pair<long long, long long>> raised;
    std::int64_t raises = 0;
    std::ifstream in(trace_path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"type\":\"suspect\"", 0) != 0 ||
          line.find("\"down\":1") == std::string::npos) {
        continue;
      }
      long long observer = -1;
      long long victim = -1;
      const std::size_t at = line.find("\"observer\":");
      if (at != std::string::npos &&
          std::sscanf(line.c_str() + at, "\"observer\":%lld,\"victim\":%lld",
                      &observer, &victim) == 2) {
        raised.insert({observer, victim});
        ++raises;
      }
    }
    const auto pairs = static_cast<std::int64_t>(raised.size());
    reraises_ = raises - pairs;
    p.require(r.trace_dropped == 0, "soak trace dropped records");
    p.require(raises == r.detection.count(),
              "soak trace has " + std::to_string(raises) +
                  " detections, report " +
                  std::to_string(r.detection.count()));
    p.require(pairs == kSoakPairs, "soak detected " + std::to_string(pairs) +
                                       " pairs of " +
                                       std::to_string(kSoakPairs));
    p.attempted = r.transport.sent;
    p.failed = r.transport.queue_drops + r.transport.sock_errors;
    out.push_back(std::move(p));
  }

  void probes(SpanLog& spans, Layers& layers, Pass& checks) override {
    const ScopedSpan span(spans, "transport probe");
    probe(false, layers, checks);
    probe(true, layers, checks);
  }

 private:
  transport::SoakReport soak(SpanLog& spans, CallTime& time,
                             const transport::SoakConfig& config,
                             Pass* checks = nullptr) {
    transport::SoakReport r;
    std::string error;
    bool ok = false;
    timed_call(time, spans, "transport::run_soak",
               [&] { ok = transport::run_soak(config, r, error); });
    if (!ok) {
      if (checks == nullptr) throw std::runtime_error("run_soak: " + error);
      checks->errors.push_back("run_soak: " + error);
    }
    return r;
  }

  /// The soak's traffic shape through the public Transport API: every
  /// endpoint sends 3 frames of ~800 B per 100 ms tick, then one poll
  /// collects the tick's datagrams. Each send() and poll() is timed.
  static void probe(bool flaky, Layers& layers, Pass& checks) {
    constexpr int kTicks = 200;
    constexpr int kFanout = 3;
    constexpr std::size_t kPayload = 800;
    transport::UdpParams params;
    params.base_port = kProbePort;
    std::unique_ptr<transport::Transport> t =
        std::make_unique<transport::UdpTransport>(kSoakN, params);
    if (flaky) {
      transport::FlakyParams fp;
      fp.network.loss_prob = 0.05;
      t = std::make_unique<transport::FlakyTransport>(std::move(t), kSoakN,
                                                      0xf1a4b, fp);
    }
    std::vector<std::uint8_t> payload(kPayload);
    for (std::size_t i = 0; i < kPayload; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131u);
    }
    std::vector<double> send_us;
    std::vector<double> poll_us;
    std::vector<double> poll_us_per_datagram;
    send_us.reserve(static_cast<std::size_t>(kTicks) * kSoakN * kFanout);
    std::vector<transport::Delivery> out;
    std::int64_t delivered = 0;
    for (int tick = 0; tick < kTicks; ++tick) {
      const double now = tick * 100.0;
      for (int from = 0; from < kSoakN; ++from) {
        for (int k = 1; k <= kFanout; ++k) {
          // k * stride < kSoakN, so a node never sends to itself.
          const int to = (from + k * (tick % 61 + 1)) % kSoakN;
          const auto t0 = Clock::now();
          t->send(from, to, payload.data(), payload.size(), now);
          send_us.push_back(ms_between(t0, Clock::now()) * 1e3);
        }
      }
      out.clear();
      const auto t0 = Clock::now();
      t->poll(now + 99.0, out);
      const double us = ms_between(t0, Clock::now()) * 1e3;
      poll_us.push_back(us);
      if (!out.empty()) {
        poll_us_per_datagram.push_back(us / static_cast<double>(out.size()));
      }
      delivered += static_cast<std::int64_t>(out.size());
    }
    // Untimed drain of any frame whose injected delay outlived its tick.
    out.clear();
    t->poll(kTicks * 100.0 + 1'000.0, out);
    delivered += static_cast<std::int64_t>(out.size());
    const transport::TransportCounters c = t->counters();
    const std::int64_t expected = c.sent - c.dropped + c.duplicated;
    checks.require(c.queue_drops == 0 && c.sock_errors == 0,
                   "probe: queue drops or socket errors");
    checks.require(delivered == expected,
                   std::string(flaky ? "flaky" : "udp") + " probe delivered " +
                       std::to_string(delivered) + " of " +
                       std::to_string(expected));
    ++checks.attempted;
    if (flaky) {
      layers["transport.flaky_send_us"] = median(send_us);
      layers["transport.flaky_poll_us"] = median(poll_us);
    } else {
      layers["transport.udp_send_us"] = median(send_us);
      layers["transport.udp_poll_us_p50"] = median(poll_us);
      layers["transport.udp_poll_us_p99"] = quantile(poll_us, 0.99);
      layers["transport.udp_poll_us_per_datagram"] =
          median(poll_us_per_datagram);
    }
  }

  std::string checkpoint_path_;
  std::string trace_path_;
  transport::SoakConfig config_;
  std::int64_t reraises_ = 0;
};

/// The paper's own claim: the E1a unbounded-crash table at n=5, through
/// sim/algo/fd only.
class PaperMatrixWorkload final : public Workload {
 public:
  explicit PaperMatrixWorkload(std::uint64_t seed) : seed_(seed) {
    config_.horizon = 20'000;
    config_.schedule_seeds = 1;
    config_.base_seed = seed;
  }

  void setup(SpanLog& spans, CallTime& time) override {
    timed_call(time, spans, "core::standard_patterns",
               [&] { patterns_ = patterns(seed_); });
    // One verdict of every row on the last pattern, which does not depend
    // on the seed (the seeded sweep's first one can take twice as long).
    const std::vector<model::FailurePattern> last = {patterns_.back()};
    for (const Row& row : rows()) {
      timed_call(time, spans, std::string("core::evaluate_algorithm ") +
                                  row.slug,
                 [&] { evaluate(row, last); });
    }
  }

  Pass pass(SpanLog& spans, Mode mode, Layers* layers) override {
    if (mode != Mode::kProfiled) layers = nullptr;
    Pass p;
    std::string verdicts;
    double runs = 0.0;
    for (const Row& row : rows()) {
      core::Verdict v;
      const double ms = timed_call(
          p.time, spans, std::string("core::evaluate_algorithm ") + row.slug,
          [&] { v = evaluate(row, patterns_); });
      verdicts += std::string(row.slug) + '=' + v.to_string() + ';';
      runs += static_cast<double>(v.runs);
      if (layers != nullptr) {
        (*layers)[std::string("core.eval.") + row.slug + "_ms"] = ms;
      }
      if (row.expect == Expect::kUnchecked) continue;
      ++p.attempted;
      const bool holds =
          row.expect == Expect::kSolved ? v.solved() : v.safe();
      if (!holds) {
        ++p.failed;
        p.errors.push_back(std::string(row.slug) + " contradicts the paper: " +
                           v.to_string() + " " + v.first_failure);
      }
    }
    if (layers != nullptr) (*layers)["core.eval.runs"] = runs;
    p.fingerprint = fnv1a_hex(verdicts);
    return p;
  }

 private:
  enum class Expect { kSolved, kSafe, kUnchecked };
  struct Row {
    const char* detector;
    const char* slug;
    core::AlgoKind algo;
    core::SpecKind spec;
    Expect expect;
  };

  static const std::vector<Row>& rows() {
    using core::AlgoKind;
    using core::SpecKind;
    constexpr SpecKind kUc = SpecKind::kUniformConsensus;
    // Rows whose counterexample depends on the schedule seed (<>P with
    // CT-S, P< with uniform consensus) and rows the paper makes no claim
    // about here run unchecked.
    static const std::vector<Row> table = {
        {"P", "P.ct_s", AlgoKind::kCtStrong, kUc, Expect::kSolved},
        {"P", "P.trb", AlgoKind::kTrb, SpecKind::kTrb, Expect::kSolved},
        {"Scribe", "scribe.ct_s", AlgoKind::kCtStrong, kUc,
         Expect::kUnchecked},
        {"S(cheat)", "s_cheat.ct_s", AlgoKind::kCtStrong, kUc,
         Expect::kSolved},
        {"S(cheat)", "s_cheat.trb", AlgoKind::kTrb, SpecKind::kTrb,
         Expect::kUnchecked},
        {"Marabout", "marabout.leader", AlgoKind::kMarabout, kUc,
         Expect::kSolved},
        {"Marabout", "marabout.ct_s", AlgoKind::kCtStrong, kUc,
         Expect::kUnchecked},
        {"<>S", "ev_s.ct_rot", AlgoKind::kCtRotating, kUc, Expect::kSafe},
        {"Omega", "omega.ct_rot", AlgoKind::kCtRotating, kUc, Expect::kSafe},
        {"<>P", "ev_p.ct_rot", AlgoKind::kCtRotating, kUc, Expect::kSafe},
        {"<>P", "ev_p.ct_s", AlgoKind::kCtStrong, kUc, Expect::kUnchecked},
        {"P<", "p_lt.chain_crc", AlgoKind::kCrChain,
         SpecKind::kCorrectRestrictedConsensus, Expect::kSolved},
        {"P<", "p_lt.chain_uc", AlgoKind::kCrChain, kUc, Expect::kUnchecked},
        {"P<", "p_lt.trb", AlgoKind::kTrb, SpecKind::kTrb,
         Expect::kUnchecked},
    };
    return table;
  }

  /// The E1a pattern family: the standard sweep with up to n-1 crashes,
  /// plus early cascades and every all-but-one crash at tick 0.
  static std::vector<model::FailurePattern> patterns(std::uint64_t seed) {
    auto out = core::standard_patterns(5, 4, seed, 1500, 4);
    out.push_back(model::cascade(5, 3, 0, 1));
    out.push_back(model::cascade(5, 4, 0, 1));
    for (ProcessId survivor = 0; survivor < 5; ++survivor) {
      out.push_back(model::all_but_one_crash(5, survivor, 0));
    }
    return out;
  }

  core::Verdict evaluate(const Row& row,
                         const std::vector<model::FailurePattern>& patterns) {
    core::EvalConfig config = config_;
    if (row.spec == core::SpecKind::kTrb) config.trb_sender = 2;
    return core::evaluate_algorithm(fd::find_detector(row.detector), row.algo,
                                    row.spec, patterns, config);
  }

  std::uint64_t seed_;
  core::EvalConfig config_;
  std::vector<model::FailurePattern> patterns_;
};

// ------------------------------------------------------------------ runner

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a --trace 1 run reports, in BENCHMARK.json
/// order; layers a workload does not exercise report 0.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"runtime.events", "count"},
      {"runtime.peak_queue", "count"},
      {"runtime.dispatch_ms", "ms"},
      {"runtime.dispatch_calls", "count"},
      {"runtime.dispatch_self_ms", "ms"},
      {"runtime.route_ms", "ms"},
      {"runtime.route_calls", "count"},
      {"runtime.sync_wait_ms", "ms"},
      {"runtime.sync_meets", "count"},
      {"cluster.observe_ms", "ms"},
      {"cluster.observe_calls", "count"},
      {"cluster.digest_ms", "ms"},
      {"cluster.digest_calls", "count"},
      {"cluster.msgs_sent", "count"},
      {"cluster.digest_entries", "count"},
      {"cluster.payload_bytes", "B"},
      {"cluster.engine_self_ms", "ms"},
      {"cluster.setup_ms", "ms"},
      {"cluster.scenario_parse_ms", "ms"},
      {"qos.detect_p50_ms", "ms"},
      {"qos.detect_p99_ms", "ms"},
      {"qos.detect_samples", "count"},
      {"qos.false_suspicions", "count"},
      {"qos.missed", "count"},
      {"obs.trace_ms", "ms"},
      {"obs.trace_records", "count"},
      {"obs.trace_bytes", "B"},
      {"obs.trace_dropped", "count"},
      {"transport.sent", "count"},
      {"transport.delivered", "count"},
      {"transport.dropped", "count"},
      {"transport.queue_drops", "count"},
      {"transport.retries", "count"},
      {"transport.sock_errors", "count"},
      {"transport.user_s", "s"},
      {"transport.sys_s", "s"},
      {"transport.datagrams_per_s", "1/s"},
      {"transport.reraises", "count"},
      {"transport.checkpoint_ms", "ms"},
      {"transport.checkpoints", "count"},
      {"transport.checkpoint_bytes", "B"},
      {"transport.udp_send_us", "us"},
      {"transport.udp_poll_us_p50", "us"},
      {"transport.udp_poll_us_p99", "us"},
      {"transport.udp_poll_us_per_datagram", "us"},
      {"transport.flaky_send_us", "us"},
      {"transport.flaky_poll_us", "us"},
      {"core.eval.P.ct_s_ms", "ms"},
      {"core.eval.P.trb_ms", "ms"},
      {"core.eval.scribe.ct_s_ms", "ms"},
      {"core.eval.s_cheat.ct_s_ms", "ms"},
      {"core.eval.s_cheat.trb_ms", "ms"},
      {"core.eval.marabout.leader_ms", "ms"},
      {"core.eval.marabout.ct_s_ms", "ms"},
      {"core.eval.ev_s.ct_rot_ms", "ms"},
      {"core.eval.omega.ct_rot_ms", "ms"},
      {"core.eval.ev_p.ct_rot_ms", "ms"},
      {"core.eval.ev_p.ct_s_ms", "ms"},
      {"core.eval.p_lt.chain_crc_ms", "ms"},
      {"core.eval.p_lt.chain_uc_ms", "ms"},
      {"core.eval.p_lt.trb_ms", "ms"},
      {"core.eval.runs", "count"},
      {"bench.trace_overhead_ms", "ms"},
  };
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 15;
  bool trace = false;
  std::string out = "bench-out";
  std::string scenarios = "scenarios";
};

struct WorkloadInfo {
  const char* name;
  std::uint64_t default_seed;
  std::unique_ptr<Workload> (*make)(const Options& opt);
};

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"gossip-2k", 0xe12,
       [](const Options& o) -> std::unique_ptr<Workload> {
         return std::make_unique<GossipWorkload>(2048, 1, 20'000.0, o.seed);
       }},
      {"gossip-4k-x2", 0xe13,
       [](const Options& o) -> std::unique_ptr<Workload> {
         return std::make_unique<GossipWorkload>(4096, 2, 10'000.0, o.seed);
       }},
      {"scenario-library", kGoldenSeed,
       [](const Options& o) -> std::unique_ptr<Workload> {
         return std::make_unique<ScenarioLibraryWorkload>(o.scenarios, o.out,
                                                          o.seed);
       }},
      {"udp-soak", 7,
       [](const Options& o) -> std::unique_ptr<Workload> {
         return std::make_unique<UdpSoakWorkload>(o.out, o.seed);
       }},
      {"paper-matrix", 0xe1a,
       [](const Options& o) -> std::unique_ptr<Workload> {
         return std::make_unique<PaperMatrixWorkload>(o.seed);
       }},
  };
  return list;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// The facts a reader needs to compare two runs: CPU budget, toolchain,
/// build flags, kernel, and whether the output directory is in memory.
void print_env(const Options& opt) {
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  struct statfs fs_info{};
  const bool tmpfs = statfs(opt.out.c_str(), &fs_info) == 0 &&
                     fs_info.f_type == 0x01021994;  // TMPFS_MAGIC
  std::printf(
      "env {\"usable_cpus\": %d, \"hardware_concurrency\": %u, "
      "\"compiler\": \"%s\", \"optimize\": %s, \"ndebug\": %s, "
      "\"kernel\": \"%s\", \"out_tmpfs\": %s}\n",
      usable_cpus(), std::thread::hardware_concurrency(), __VERSION__,
      kOptimized ? "true" : "false", kNdebug ? "true" : "false",
      kernel.c_str(), tmpfs ? "true" : "false");
  if (!kOptimized) {
    std::printf("warning: unoptimized build; timings are not comparable\n");
  }
}

struct Reported {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  double value = 0.0;  // what the JSON line reports (the median)
};

void print_summary(const Reported& m) {
  std::printf("%s %s %.6g %.6g %.6g %zu\n", m.name.c_str(), m.unit.c_str(),
              m.value, quantile(m.samples, 0.25), quantile(m.samples, 0.75),
              m.samples.size());
}

int run(const Options& opt, const WorkloadInfo& info) {
  fs::create_directories(opt.out);
  print_env(opt);
  std::unique_ptr<Workload> workload = info.make(opt);
  SpanLog spans(opt.trace);
  const int root = spans.begin("run " + opt.workload);

  std::vector<Pass> passes;
  workload->reference_checks(passes);

  std::vector<double> setup_ms;
  double setup_total_ms = 0.0;
  const auto set_up = [&] {
    const ScopedSpan span(spans, "setup");
    CallTime t;
    workload->setup(spans, t);
    setup_ms.push_back(t.wall_ms);
    setup_total_ms += t.wall_ms;
  };

  std::vector<Mode> cycle = {Mode::kPlain};
  if (opt.trace) {
    cycle.push_back(Mode::kProfiled);
    if (workload->variant_metric() != nullptr) cycle.push_back(Mode::kVariant);
  }
  std::map<Mode, std::vector<double>> wall_ms, cpu_ms;
  std::map<Mode, std::string> fingerprint;
  // Per-layer values of every traced pass, by metric name.
  std::map<std::string, std::vector<double>> samples;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(opt.seconds);
  set_up();
  for (int round = 0; round < kMinPasses || Clock::now() < deadline;
       ++round) {
    // Set-ups are spread through the run, not bunched at its start, so a
    // slow spell of the host weighs on them as it does on the passes.
    while (setup_total_ms < kSetupShare * ms_between(start, Clock::now())) {
      set_up();
    }
    for (const Mode mode : cycle) {
      const ScopedSpan span(spans, mode == Mode::kPlain      ? "pass"
                                   : mode == Mode::kProfiled ? "pass profiled"
                                                             : "pass variant");
      Layers layers;
      Pass p = workload->pass(spans, mode, opt.trace ? &layers : nullptr);
      wall_ms[mode].push_back(p.time.wall_ms);
      cpu_ms[mode].push_back(p.time.cpu_ms());
      auto [it, first] = fingerprint.emplace(mode, p.fingerprint);
      p.require(first || it->second == p.fingerprint,
                "pass " + std::to_string(round) + " fingerprint " +
                    p.fingerprint + " != " + it->second);
      for (const auto& [name, value] : layers) samples[name].push_back(value);
      passes.push_back(std::move(p));
    }
  }
  while (static_cast<int>(setup_ms.size()) < kSetupReps) set_up();
  std::printf("fingerprint %s %llu %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              fingerprint[Mode::kPlain].c_str());

  std::vector<Reported> metrics;
  if (!opt.trace) {
    const auto seconds = [](std::vector<double> ms) {
      for (double& v : ms) v /= 1e3;
      return ms;
    };
    metrics = {{"wall_s", "s", seconds(wall_ms[Mode::kPlain])},
               {"cpu_s", "s", seconds(cpu_ms[Mode::kPlain])},
               {"setup_s", "s", seconds(setup_ms)},
               {"peak_rss_mb", "MB", {peak_rss_mb()}}};
  } else {
    Pass probe_checks;
    Layers probed;
    workload->probes(spans, probed, probe_checks);
    passes.push_back(std::move(probe_checks));
    for (const auto& [name, value] : probed) samples[name] = {value};
    if (const char* name = workload->setup_metric()) samples[name] = setup_ms;
    if (const char* name = workload->variant_metric()) {
      samples[name] = {median(wall_ms[Mode::kPlain]) -
                       median(wall_ms[Mode::kVariant])};
    }
    samples["bench.trace_overhead_ms"] = {median(wall_ms[Mode::kProfiled]) -
                                          median(wall_ms[Mode::kPlain])};
    for (const MetricDef& def : per_layer_metrics()) {
      const auto it = samples.find(def.name);
      metrics.push_back({def.name, def.unit,
                         it != samples.end() ? it->second
                                             : std::vector<double>{0.0}});
    }
    spans.end(root);
    const std::string path = opt.out + "/spans-" + opt.workload + ".jsonl";
    if (!spans.write(path)) {
      std::fprintf(stderr, "bench_end2end: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  for (Reported& m : metrics) {
    m.value = median(m.samples);
    print_summary(m);
  }

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "check failed: %s\n", e.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rfd::e2e

int main(int argc, char** argv) {
  using namespace rfd::e2e;
  const rfd::Cli cli(argc, argv);
  Options opt;
  opt.workload = cli.get("workload", "");
  const auto known = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const WorkloadInfo& w) { return opt.workload == w.name; });
  if (known == workloads().end()) {
    std::fprintf(stderr, "bench_end2end: unknown --workload \"%s\"; one of:",
                 opt.workload.c_str());
    for (const WorkloadInfo& w : workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string seed = cli.get("seed", "");
  char* end = nullptr;
  opt.seed = seed.empty() ? known->default_seed
                          : std::strtoull(seed.c_str(), &end, 0);
  opt.seconds = static_cast<int>(cli.get_int("seconds", opt.seconds));
  const std::int64_t trace = cli.get_int("trace", 0);
  opt.trace = trace == 1;
  opt.out = cli.get("out", opt.out) + "/" + opt.workload;
  opt.scenarios = cli.get("scenarios", opt.scenarios);
  if ((!seed.empty() && (end == nullptr || *end != '\0')) ||
      opt.seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "bench_end2end: need --seed <uint>, --seconds >= 1, "
                 "--trace 0|1\n");
    return 2;
  }
  try {
    return run(opt, *known);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_end2end: %s\n", e.what());
    return 1;
  }
}
