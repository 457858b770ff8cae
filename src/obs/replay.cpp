#include "obs/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/fault_state.hpp"

namespace rfd::obs {
namespace {

// Minimal field extraction for the flat, fixed-order record grammar
// TraceWriter produces (string values in the records we replay never
// contain escaped quotes, and the replayed types have no nested objects).
bool find_value(std::string_view line, std::string_view key,
                std::string_view& value) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":";
  const std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return false;
  value = line.substr(pos + pattern.size());
  return true;
}

bool field_num(std::string_view line, std::string_view key, double& out) {
  std::string_view value;
  if (!find_value(line, key, value)) return false;
  char buf[64];
  const std::size_t len = std::min(value.size(), sizeof(buf) - 1);
  std::memcpy(buf, value.data(), len);
  buf[len] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end != buf;
}

bool field_str(std::string_view line, std::string_view key,
               std::string& out) {
  std::string_view value;
  if (!find_value(line, key, value)) return false;
  if (value.empty() || value.front() != '"') return false;
  value.remove_prefix(1);
  const std::size_t quote = value.find('"');
  if (quote == std::string_view::npos) return false;
  out.assign(value.substr(0, quote));
  return true;
}

}  // namespace

ReplayQos replay_qos(const std::string& path) {
  ReplayQos result;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    result.error = "cannot open " + path;
    return result;
  }

  // The engine's own interpreter and ledger, fed from the records.
  cluster::FaultState truth(0, 0);
  cluster::QosLedger qos;
  // Standing suspicions: (observer, victim) -> raise time, mirroring the
  // nodes' cached per-pair verdicts.
  std::unordered_map<std::int64_t, double> suspicion;
  auto pair_key = [&](std::int64_t i, std::int64_t j) {
    return i * static_cast<std::int64_t>(result.max_nodes) + j;
  };
  auto in_range = [&](double id) {
    return id >= 0.0 && id < static_cast<double>(result.max_nodes);
  };

  std::string line;
  std::string kind;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.assign(buf);
    // Reassemble lines longer than the read buffer (log records can be).
    while (!line.empty() && line.back() != '\n' &&
           std::fgets(buf, sizeof(buf), f) != nullptr) {
      line.append(buf);
    }
    if (line.empty() || line.front() != '{') continue;
    ++result.records_read;

    std::string type;
    if (!field_str(line, "type", type)) continue;
    double t = 0.0;
    field_num(line, "t", t);

    if (type == "run") {
      double n = 0.0;
      double max_nodes = 0.0;
      double duration = 0.0;
      field_num(line, "n", n);
      field_num(line, "max_nodes", max_nodes);
      field_num(line, "duration_ms", duration);
      result.n = static_cast<int>(n);
      result.max_nodes = static_cast<int>(max_nodes);
      result.duration_ms = duration;
      if (result.n < 0 || result.n > result.max_nodes) {
        result.error = "inconsistent run header in " + path;
        break;
      }
      truth = cluster::FaultState(result.max_nodes, result.n);
    } else if (type == "fault") {
      // The engine emits fault records only when they take effect;
      // only the node-shaped kinds move the ground truth.
      double node = -1.0;
      field_num(line, "node", node);
      const std::optional<cluster::FaultKind> fault_kind =
          field_str(line, "kind", kind) ? cluster::fault_kind_from_name(kind)
                                        : std::nullopt;
      if (!fault_kind || !in_range(node)) continue;
      cluster::FaultEvent event;
      event.kind = *fault_kind;
      event.node = static_cast<cluster::NodeId>(node);
      const cluster::FaultEffect effect = truth.apply(event, t);
      if (effect == cluster::FaultEffect::kDown) {
        // The mistakes the node going down ends: live observers'
        // suspicions of it, and its own suspicions of live peers.
        const auto end = [&](std::int64_t i, cluster::NodeId j) {
          const auto it = suspicion.find(pair_key(i, j));
          if (it != suspicion.end()) qos.end_mistake(truth, j, it->second, t);
        };
        for (cluster::NodeId v = 0; v < result.max_nodes; ++v) {
          if (v == event.node || !truth.truly_active(v)) continue;
          end(v, event.node);
          end(event.node, v);
        }
      } else if (effect == cluster::FaultEffect::kUp ||
                 effect == cluster::FaultEffect::kJoined) {
        // A restarted/joined process has no peer memory: its row of
        // standing suspicions is wiped (ClusterNode::reset_peers).
        for (std::int64_t v = 0; v < result.max_nodes; ++v) {
          suspicion.erase(pair_key(event.node, v));
        }
      }
    } else if (type == "suspect" || type == "clear") {
      double observer = -1.0;
      double victim = -1.0;
      field_num(line, "observer", observer);
      field_num(line, "victim", victim);
      if (!in_range(observer) || !in_range(victim)) continue;
      const auto i = static_cast<cluster::NodeId>(observer);
      const auto j = static_cast<cluster::NodeId>(victim);
      const bool raise = type == "suspect";
      const bool down = truth.truly_down(j);
      qos.flip(i, j, raise, down, t);
      if (raise) {
        suspicion[pair_key(i, j)] = t;
      } else if (const auto it = suspicion.find(pair_key(i, j));
                 it != suspicion.end()) {
        if (!down) qos.end_mistake(truth, j, it->second, t);
        suspicion.erase(it);
      }
    } else if (type == "lost") {
      double dropped = 0.0;
      field_num(line, "dropped", dropped);
      result.lost_records += static_cast<std::int64_t>(dropped);
    }
  }
  std::fclose(f);

  if (!result.error.empty()) return result;
  if (result.max_nodes <= 0) {
    result.error = "no run header record in " + path;
    return result;
  }

  result.suspicion_raises = qos.raises();
  result.suspicion_clears = qos.clears();
  result.false_suspicions = qos.false_suspicions();
  result.mistakes = qos.mistakes();
  result.mistake_ms = static_cast<double>(qos.mistake_us()) / 1000.0;
  cluster::standing_suspicions(
      truth,
      [&](cluster::NodeId i, cluster::NodeId j) {
        const auto it = suspicion.find(pair_key(i, j));
        if (it == suspicion.end()) return cluster::Standing{};
        return cluster::Standing{true, true, it->second};
      },
      [&](double ms) { result.detection_latency_ms.add(ms); });
  result.ok = true;
  return result;
}

}  // namespace rfd::obs
