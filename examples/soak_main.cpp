// Soak runner: the cluster engine over a real or simulated transport,
// with checkpointed crash-resume and graceful signal shutdown.
//
//   ./soak [seed]
//          [--backend sim|udp]        transport (default sim)
//          [--scenario <file.scn>]    fault timeline (scenario DSL)
//          [--n <count>]              initial nodes (default 16)
//          [--duration <ms>]          simulated horizon (default 30000)
//          [--tick <ms>]              heartbeat/check grid (default 100)
//          [--detector fixed|chen|phi] (default fixed)
//          [--timeout <ms>]           fixed detector timeout (default 1000)
//          [--flaky]                  socket-boundary fault injection
//          [--flaky-loss <p>]         injection loss probability
//          [--flaky-dup <p>]          injection duplication probability
//          [--loss <p>]               sim backend network loss
//          [--checkpoint <path>]      checkpoint file (enables snapshots)
//          [--checkpoint-every <ms>]  cadence (default 5000 when enabled)
//          [--resume]                 resume from --checkpoint
//          [--time-scale <x>]         udp wall ms per sim ms (default 1.0)
//          [--base-port <port>]       udp port range base (default 39000)
//          [--trace <path|->]         JSONL trace
//          [--trace-every <ticks>]    metrics snapshot cadence
//
// The same .scn files the simulator runs drive this binary on both
// backends; on udp, network-shaped faults require --flaky (the
// injection layer is where partitions/storms/loss live - real sockets
// have no verdict network). SIGINT/SIGTERM end the run after the
// current check window (the first always runs), flush the trace and
// write a final checkpoint; a second signal kills the process the
// default way.
//
// The last stdout line is machine-readable: "SOAK {json}".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/scenario_dsl.hpp"
#include "common/cli.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "transport/soak.hpp"

int main(int argc, char** argv) {
  using namespace rfd;
  const Cli cli(argc, argv);
  const std::uint64_t seed =
      !cli.positional().empty()
          ? std::strtoull(cli.positional()[0].c_str(), nullptr, 10)
          : 1;

  transport::SoakConfig config;
  config.seed = seed;
  config.n = static_cast<int>(cli.get_int("n", 16));
  config.duration_ms = cli.get_double("duration", 30'000.0);
  config.tick_ms = cli.get_double("tick", 100.0);
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;

  const std::string backend = cli.get("backend", "sim");
  if (backend == "udp") {
    config.backend = transport::SoakBackend::kUdp;
  } else if (backend != "sim") {
    std::fprintf(stderr, "soak: unknown backend \"%s\" (sim|udp)\n",
                 backend.c_str());
    return 1;
  }

  const std::string detector = cli.get("detector", "fixed");
  if (detector == "fixed") {
    config.detector.kind = rt::DetectorKind::kFixed;
    config.detector.fixed.timeout_ms = cli.get_double("timeout", 1'000.0);
  } else if (detector == "chen") {
    config.detector.kind = rt::DetectorKind::kChen;
  } else if (detector == "phi") {
    config.detector.kind = rt::DetectorKind::kPhi;
  } else {
    std::fprintf(stderr, "soak: unknown detector \"%s\" (fixed|chen|phi)\n",
                 detector.c_str());
    return 1;
  }

  config.network.loss_prob = cli.get_double("loss", 0.0);
  config.flaky = cli.get_bool("flaky", false);
  config.flaky_params.network.loss_prob = cli.get_double("flaky-loss", 0.0);
  config.flaky_params.dup_prob = cli.get_double("flaky-dup", 0.0);
  const std::int64_t base_port = cli.get_int("base-port", 39000);
  if (base_port < 1 || base_port > 65535) {
    std::fprintf(stderr, "soak: --base-port %lld is not a port (1..65535)\n",
                 static_cast<long long>(base_port));
    return 1;
  }
  config.udp.base_port = static_cast<std::uint16_t>(base_port);
  config.time_scale = cli.get_double("time-scale", 1.0);

  config.checkpoint_path = cli.get("checkpoint", "");
  config.checkpoint_every_ms = cli.get_double(
      "checkpoint-every", config.checkpoint_path.empty() ? 0.0 : 5'000.0);
  config.resume = cli.get_bool("resume", false);

  config.obs.trace_path = cli.get("trace", "");
  config.obs.snapshot_every_ticks = static_cast<int>(
      cli.get_int("trace-every", config.obs.trace_path.empty() ? 0 : 50));

  const std::string scenario_path = cli.get("scenario", "");
  if (!scenario_path.empty()) {
    cluster::ScenarioDoc doc;
    cluster::DslError err;
    if (!cluster::load_scenario_file(scenario_path, cluster::DslContext{},
                                     doc, err)) {
      std::fprintf(stderr, "soak: %s: %s\n", scenario_path.c_str(),
                   err.to_string().c_str());
      return 1;
    }
    if (doc.n > 0) config.n = doc.n;
    if (doc.max_nodes > 0) config.max_nodes = doc.max_nodes;
    if (doc.duration_ms > 0.0 && cli.get("duration", "").empty()) {
      config.duration_ms = doc.duration_ms;
    }
    config.scenario = std::move(doc.scenario);
  }
  config.topology.digest_size =
      std::min(std::max(32, config.n), transport::kMaxSoakDigest);

  install_shutdown_handlers();

  transport::SoakReport report;
  std::string error;
  if (!transport::run_soak(config, report, error)) {
    std::fprintf(stderr, "soak: %s\n", error.c_str());
    return 1;
  }

  Table table({"metric", "value"});
  table.add_row({"backend", report.backend});
  table.add_row({"nodes", Table::num(report.n)});
  table.add_row({"sim time (s)", Table::fixed(report.sim_ms / 1000.0, 1)});
  table.add_row({"wall time (s)", Table::fixed(report.wall_ms / 1000.0, 1)});
  table.add_row({"datagrams sent", Table::num(report.transport.sent)});
  table.add_row({"delivered", Table::num(report.transport.delivered)});
  table.add_row({"dropped", Table::num(report.transport.dropped)});
  table.add_row({"duplicated", Table::num(report.transport.duplicated)});
  table.add_row({"send-queue drops", Table::num(report.transport.queue_drops)});
  table.add_row({"send retries", Table::num(report.transport.retries)});
  table.add_row({"socket errors", Table::num(report.transport.sock_errors)});
  table.add_row({"suspicions raised", Table::num(report.raises)});
  table.add_row({"suspicions cleared", Table::num(report.clears)});
  table.add_row({"false suspicions", Table::num(report.false_suspicions)});
  table.add_row({"missed detections", Table::num(report.missed)});
  table.add_row(
      {"detection p50 (ms)",
       report.detection.count() > 0
           ? Table::fixed(report.detection.percentile(0.5), 0)
           : "-"});
  table.add_row(
      {"detection p99 (ms)",
       report.detection.count() > 0
           ? Table::fixed(report.detection.percentile(0.99), 0)
           : "-"});
  table.add_row({"final agreement", Table::yes_no(report.final_agreement)});
  table.add_row({"checkpoints written", Table::num(report.checkpoints_written)});
  table.add_row({"resumed", Table::yes_no(report.resumed)});
  table.add_row({"stopped by signal", Table::yes_no(report.stopped_by_signal)});
  table.print("soak run");

  std::printf(
      "SOAK {\"backend\":\"%s\",\"n\":%d,\"sim_ms\":%.1f,"
      "\"ticks\":%lld,\"wall_ms\":%.1f,\"sent\":%lld,\"delivered\":%lld,"
      "\"dropped\":%lld,\"duplicated\":%lld,\"queue_drops\":%lld,"
      "\"retries\":%lld,\"sock_errors\":%lld,\"raises\":%lld,"
      "\"clears\":%lld,\"false\":%lld,\"missed\":%lld,"
      "\"detections\":%lld,\"detect_p50_ms\":%.1f,\"detect_p99_ms\":%.1f,"
      "\"agreement\":%s,\"checkpoints\":%d,\"resumed\":%s,\"signal\":%s,"
      "\"fingerprint\":\"%016llx\"}\n",
      report.backend.c_str(), report.n, report.sim_ms,
      static_cast<long long>(report.ticks_run), report.wall_ms,
      static_cast<long long>(report.transport.sent),
      static_cast<long long>(report.transport.delivered),
      static_cast<long long>(report.transport.dropped),
      static_cast<long long>(report.transport.duplicated),
      static_cast<long long>(report.transport.queue_drops),
      static_cast<long long>(report.transport.retries),
      static_cast<long long>(report.transport.sock_errors),
      static_cast<long long>(report.raises),
      static_cast<long long>(report.clears),
      static_cast<long long>(report.false_suspicions),
      static_cast<long long>(report.missed),
      static_cast<long long>(report.detection.count()),
      report.detection.count() > 0 ? report.detection.percentile(0.5) : 0.0,
      report.detection.count() > 0 ? report.detection.percentile(0.99) : 0.0,
      report.final_agreement ? "true" : "false", report.checkpoints_written,
      report.resumed ? "true" : "false",
      report.stopped_by_signal ? "true" : "false",
      static_cast<unsigned long long>(report.outcome_fingerprint));
  return 0;
}
