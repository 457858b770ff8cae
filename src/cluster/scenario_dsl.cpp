#include "cluster/scenario_dsl.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace rfd::cluster {
namespace {

/// Node ids must stay below this when neither the file nor the context
/// sets max_nodes; it is also the largest n, max_nodes or cluster a file
/// may set.
constexpr std::int64_t kIdCeiling = std::int64_t{1} << 20;
/// Most a whole scenario may expand into: primitive events plus the node
/// ids their link and partition sets carry. Every statement computes its
/// expansion before emitting anything.
constexpr std::int64_t kMaxExpansion = std::int64_t{1} << 20;
/// Largest time or delay a statement may name (about 31 years): every
/// compound's `from + span * i / count` and `extra * steps` stay finite.
constexpr double kMaxMs = 1e12;

// ---------------------------------------------------------------------------
// Line scanner: one statement per line, `#` comments, tokens separated by
// blanks. Every token remembers its 1-based column so diagnostics point
// at the exact spot.

struct KeyVal {
  std::string key;
  int key_col = 0;
  std::string value;
  int value_col = 0;
};

struct Statement {
  std::string keyword;
  int line = 0;
  int col = 0;
  std::vector<KeyVal> kvs;
  std::string str_arg;  // quoted positional argument (only `name` has one)
  bool has_str = false;
};

bool fail(DslError& err, int line, int col, std::string message) {
  err.line = line;
  err.col = col;
  err.message = std::move(message);
  return false;
}

/// Scans one source line into a statement; `out_empty` is true when the
/// line holds nothing but blanks/comments.
bool scan_line(std::string_view text, int line_no, Statement& out,
               bool& out_empty, DslError& err) {
  out = Statement{};
  out.line = line_no;
  out_empty = true;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (i >= text.size() || text[i] == '#') break;
    const int col = static_cast<int>(i) + 1;
    if (text[i] == '"') {
      const std::size_t close = text.find('"', i + 1);
      if (close == std::string_view::npos) {
        return fail(err, line_no, col, "unterminated string");
      }
      if (out.keyword.empty()) {
        return fail(err, line_no, col,
                    "a statement must start with a keyword");
      }
      if (out.has_str) {
        return fail(err, line_no, col, "unexpected second string argument");
      }
      out.str_arg.assign(text.substr(i + 1, close - i - 1));
      out.has_str = true;
      i = close + 1;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t' &&
           text[end] != '#') {
      ++end;
    }
    const std::string_view token = text.substr(i, end - i);
    const std::size_t eq = token.find('=');
    if (out.keyword.empty()) {
      if (eq != std::string_view::npos) {
        return fail(err, line_no, col,
                    "a statement must start with a keyword, not key=value");
      }
      out.keyword.assign(token);
      out.col = col;
      out_empty = false;
    } else {
      if (eq == std::string_view::npos || eq == 0) {
        return fail(err, line_no, col,
                    "expected key=value, got '" + std::string(token) + "'");
      }
      KeyVal kv;
      kv.key.assign(token.substr(0, eq));
      kv.key_col = col;
      kv.value.assign(token.substr(eq + 1));
      kv.value_col = col + static_cast<int>(eq) + 1;
      out.kvs.push_back(std::move(kv));
    }
    i = end;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Typed value parsers.

bool parse_number(const Statement& st, const KeyVal& kv, double& out,
                  DslError& err) {
  const char* begin = kv.value.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !std::isfinite(out)) {
    return fail(err, st.line, kv.value_col,
                "'" + kv.value + "' is not a number");
  }
  return true;
}

bool parse_integer(const Statement& st, const KeyVal& kv, std::int64_t& out,
                   DslError& err) {
  const auto [ptr, ec] = std::from_chars(
      kv.value.data(), kv.value.data() + kv.value.size(), out);
  if (ec != std::errc{} || ptr != kv.value.data() + kv.value.size()) {
    return fail(err, st.line, kv.value_col,
                "'" + kv.value + "' is not an integer");
  }
  return true;
}

/// Down windows Scenario::flapping_link opens, counted with the
/// builder's own time accumulation and stopped at `cap` + 1, so a
/// period too small to advance the clock costs `cap` steps, not forever.
std::int64_t flap_windows(double from, double to, double period, double duty,
                          std::int64_t cap) {
  if (duty >= 1.0) return 0;
  std::int64_t windows = 0;
  for (double t = from; t < to && t + duty * period < to; t += period) {
    if (++windows > cap) break;
  }
  return windows;
}

// ---------------------------------------------------------------------------
// Statement interpreter.

struct Parser {
  const DslContext& ctx;
  ScenarioDoc& doc;
  DslError& err;
  /// Source line of each emitted scenario event, index-aligned with
  /// doc.scenario.events; cross-event check() failures map back through
  /// this.
  std::vector<int> event_lines;
  bool saw_fault = false;
  /// What the statements so far expanded into (see kMaxExpansion).
  std::int64_t expanded = 0;

  /// The file's or the context's max_nodes (0 = neither sets one).
  int declared_limit() const {
    return doc.max_nodes > 0 ? doc.max_nodes : ctx.max_nodes;
  }

  /// Every node id must stay below this.
  std::int64_t id_limit() const {
    const int declared = declared_limit();
    return declared > 0 ? declared : kIdCeiling;
  }

  std::int64_t room() const { return kMaxExpansion - expanded; }

  bool past_cap(const Statement& st, int col) {
    return fail(err, st.line, col,
                st.keyword + " expands the scenario past " +
                    std::to_string(kMaxExpansion) + " events and node ids");
  }

  /// Charges `amount` to the scenario's expansion before the statement
  /// emits it, failing at `col` once the scenario would pass the cap.
  bool expand(const Statement& st, int col, std::int64_t amount) {
    if (amount > room()) return past_cap(st, col);
    expanded += amount;
    return true;
  }

  std::int64_t rack_size(std::int64_t explicit_size) const {
    if (explicit_size > 0) return explicit_size;
    if (doc.cluster_size > 0) return doc.cluster_size;
    if (ctx.cluster_size > 0) return ctx.cluster_size;
    const int limit = declared_limit();
    if (limit > 0) {
      return std::max(
          2, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(limit)))));
    }
    return 0;
  }

  /// Node set: comma-separated ids and lo-hi ranges, e.g. `0-3,7,9`.
  /// Every id is checked against id_limit() at its token, and `out` may
  /// hold at most `room` ids, both before anything expands.
  bool parse_set(const Statement& st, std::string_view text, int text_col,
                 std::int64_t room, std::vector<NodeId>& out) {
    if (text.empty()) return fail(err, st.line, text_col, "empty node set");
    auto id_of = [&](std::string_view digits, int col, NodeId& id) -> bool {
      int value = 0;
      const auto [ptr, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), value);
      if (ec != std::errc{} || ptr != digits.data() + digits.size() ||
          value < 0) {
        return fail(err, st.line, col,
                    "'" + std::string(digits) + "' is not a node id");
      }
      if (value >= id_limit()) {
        return fail(err, st.line, col,
                    "node " + std::to_string(value) +
                        " is out of range (ids stay below " +
                        std::to_string(id_limit()) + ")");
      }
      id = static_cast<NodeId>(value);
      return true;
    };
    std::size_t pos = 0;
    while (pos < text.size()) {
      const int part_col = text_col + static_cast<int>(pos);
      std::size_t end = text.find(',', pos);
      if (end == std::string_view::npos) end = text.size();
      const std::string_view part = text.substr(pos, end - pos);
      const std::size_t dash = part.find('-');
      NodeId lo = 0;
      NodeId hi = 0;
      if (dash == std::string_view::npos) {
        if (!id_of(part, part_col, lo)) return false;
        hi = lo;
      } else {
        if (!id_of(part.substr(0, dash), part_col, lo) ||
            !id_of(part.substr(dash + 1),
                   part_col + static_cast<int>(dash) + 1, hi)) {
          return false;
        }
        if (hi < lo) {
          return fail(err, st.line, part_col,
                      "descending range '" + std::string(part) + "'");
        }
      }
      if (std::int64_t{hi} - lo + 1 >
          room - static_cast<std::int64_t>(out.size())) {
        return past_cap(st, part_col);
      }
      for (NodeId id = lo;; ++id) {
        out.push_back(id);
        if (id == hi) break;
      }
      doc.max_node_ref = std::max(doc.max_node_ref, hi);
      pos = end + (end < text.size() ? 1 : 0);
    }
    return true;
  }

  /// Records the source line of every event the last builder calls
  /// appended.
  void mark_events(int line) {
    while (event_lines.size() < doc.scenario.events.size()) {
      event_lines.push_back(line);
    }
  }

  const KeyVal* find(const Statement& st, std::string_view key) const {
    for (const KeyVal& kv : st.kvs) {
      if (kv.key == key) return &kv;
    }
    return nullptr;
  }

  bool required(const Statement& st, std::string_view key,
                const KeyVal*& kv) {
    kv = find(st, key);
    if (kv == nullptr) {
      return fail(err, st.line, st.col,
                  st.keyword + " needs " + std::string(key) + "=");
    }
    return true;
  }

  bool known_keys(const Statement& st,
                  std::initializer_list<std::string_view> allowed) {
    for (const KeyVal& kv : st.kvs) {
      if (std::find(allowed.begin(), allowed.end(), kv.key) ==
          allowed.end()) {
        return fail(err, st.line, kv.key_col,
                    "unknown key '" + kv.key + "' for " + st.keyword);
      }
    }
    return true;
  }

  bool time_at(const Statement& st, std::string_view key, double& out) {
    const KeyVal* kv = nullptr;
    if (!required(st, key, kv)) return false;
    if (!parse_number(st, *kv, out, err)) return false;
    if (out < 0.0) {
      return fail(err, st.line, kv->value_col,
                  std::string(key) + " must be >= 0 ms");
    }
    if (out > kMaxMs) {
      return fail(err, st.line, kv->value_col,
                  std::string(key) + " must be <= 1e12 ms");
    }
    return true;
  }

  /// The extra= delay of storm_on, delay_storm and overload.
  bool extra_delay(const Statement& st, double& out) {
    const KeyVal* kv = nullptr;
    if (!required(st, "extra", kv) || !parse_number(st, *kv, out, err)) {
      return false;
    }
    if (out < 0.0 || out > kMaxMs) {
      return fail(err, st.line, kv->value_col,
                  "extra must be >= 0 ms and <= 1e12 ms");
    }
    return true;
  }

  bool window(const Statement& st, double& from, double& to) {
    if (!time_at(st, "from", from) || !time_at(st, "to", to)) return false;
    if (to <= from) {
      return fail(err, st.line, find(st, "to")->value_col,
                  "to must be greater than from");
    }
    return true;
  }

  bool probability(const Statement& st, std::string_view key, double fallback,
                   double& out) {
    const KeyVal* kv = find(st, key);
    if (kv == nullptr) {
      out = fallback;
      return true;
    }
    if (!parse_number(st, *kv, out, err)) return false;
    if (out < 0.0 || out > 1.0) {
      return fail(err, st.line, kv->value_col,
                  std::string(key) + " must be in [0, 1]");
    }
    return true;
  }

  bool node_set(const Statement& st, std::string_view key,
                std::vector<NodeId>& out) {
    const KeyVal* kv = nullptr;
    return required(st, key, kv) &&
           parse_set(st, kv->value, kv->value_col, room(), out);
  }

  bool header(const Statement& st) {
    if (st.keyword == "name") {
      if (!st.has_str) {
        return fail(err, st.line, st.col, "name needs a \"quoted\" string");
      }
      if (!known_keys(st, {})) return false;
      doc.name = st.str_arg;
      return true;
    }
    // config
    if (!known_keys(st, {"n", "max_nodes", "duration", "cluster"})) {
      return false;
    }
    std::int64_t value = 0;
    // Counts stay within the id ceiling, so every later int fits.
    auto count = [&](const KeyVal& kv, const char* key) {
      if (!parse_integer(st, kv, value, err)) return false;
      if (value > kIdCeiling) {
        return fail(err, st.line, kv.value_col,
                    std::string(key) + " must be <= " +
                        std::to_string(kIdCeiling));
      }
      return true;
    };
    if (const KeyVal* kv = find(st, "n")) {
      if (!count(*kv, "n")) return false;
      if (value < 2) {
        return fail(err, st.line, kv->value_col, "n must be >= 2");
      }
      doc.n = static_cast<int>(value);
    }
    if (const KeyVal* kv = find(st, "max_nodes")) {
      if (!count(*kv, "max_nodes")) return false;
      if (value < 2 || (doc.n > 0 && value < doc.n)) {
        return fail(err, st.line, kv->value_col, "max_nodes must be >= n");
      }
      doc.max_nodes = static_cast<int>(value);
    }
    if (doc.max_nodes > 0 && doc.n > doc.max_nodes) {
      // An n raised past the max_nodes of an earlier config statement.
      return fail(err, st.line, st.col, "max_nodes must be >= n");
    }
    if (const KeyVal* kv = find(st, "cluster")) {
      if (!count(*kv, "cluster")) return false;
      if (value < 2) {
        return fail(err, st.line, kv->value_col, "cluster must be >= 2");
      }
      doc.cluster_size = static_cast<int>(value);
    }
    if (const KeyVal* kv = find(st, "duration")) {
      double duration = 0.0;
      if (!parse_number(st, *kv, duration, err)) return false;
      if (duration <= 0.0) {
        return fail(err, st.line, kv->value_col, "duration must be > 0 ms");
      }
      doc.duration_ms = duration;
    }
    return true;
  }

  /// crash/recover/join/leave/slow_end: at= node=<set>.
  bool per_node(const Statement& st, Scenario& (Scenario::*builder)(double,
                                                                    NodeId)) {
    if (!known_keys(st, {"at", "node"})) return false;
    double at = 0.0;
    std::vector<NodeId> nodes;
    if (!time_at(st, "at", at) || !node_set(st, "node", nodes) ||
        !expand(st, st.col, static_cast<std::int64_t>(nodes.size()))) {
      return false;
    }
    for (const NodeId node : nodes) (doc.scenario.*builder)(at, node);
    mark_events(st.line);
    return true;
  }

  bool budget(const Statement& st) {
    if (!known_keys(st, {"max_false_per_node_min", "max_detect_p99"})) {
      return false;
    }
    if (st.kvs.empty()) {
      return fail(err, st.line, st.col,
                  "budget needs max_false_per_node_min= and/or "
                  "max_detect_p99=");
    }
    if (const KeyVal* kv = find(st, "max_false_per_node_min")) {
      double value = 0.0;
      if (!parse_number(st, *kv, value, err)) return false;
      if (value < 0.0) {
        return fail(err, st.line, kv->value_col,
                    "max_false_per_node_min must be >= 0");
      }
      doc.budget_max_false_per_node_min = value;
    }
    if (const KeyVal* kv = find(st, "max_detect_p99")) {
      double value = 0.0;
      if (!parse_number(st, *kv, value, err)) return false;
      if (value <= 0.0) {
        return fail(err, st.line, kv->value_col,
                    "max_detect_p99 must be > 0 ms");
      }
      doc.budget_max_detect_p99_ms = value;
    }
    return true;
  }

  bool statement(const Statement& st) {
    const std::string& kw = st.keyword;
    if (kw == "name" || kw == "config" || kw == "budget") {
      if (saw_fault) {
        return fail(err, st.line, st.col,
                    kw + " must precede all fault statements");
      }
      return kw == "budget" ? budget(st) : header(st);
    }
    saw_fault = true;
    if (kw == "crash") return per_node(st, &Scenario::crash);
    if (kw == "recover") return per_node(st, &Scenario::recover);
    if (kw == "join") return per_node(st, &Scenario::join);
    if (kw == "leave") return per_node(st, &Scenario::leave);
    if (kw == "slow_end") return per_node(st, &Scenario::slow_end);
    if (kw == "lie_end") return per_node(st, &Scenario::lie_end);
    if (kw == "heal") {
      if (!known_keys(st, {"at"})) return false;
      double at = 0.0;
      if (!time_at(st, "at", at)) return false;
      doc.scenario.heal(at);
      mark_events(st.line);
      return true;
    }
    if (kw == "partition") {
      if (!known_keys(st, {"at", "groups"})) return false;
      double at = 0.0;
      const KeyVal* kv = nullptr;
      if (!time_at(st, "at", at) || !required(st, "groups", kv)) {
        return false;
      }
      std::vector<std::vector<NodeId>> groups;
      std::string_view rest = kv->value;
      int col = kv->value_col;
      std::int64_t ids = 0;
      for (;;) {
        const std::size_t bar = rest.find('|');
        const std::string_view part = rest.substr(0, bar);
        groups.emplace_back();
        if (!parse_set(st, part, col, room() - ids, groups.back())) {
          return false;
        }
        ids += static_cast<std::int64_t>(groups.back().size());
        if (bar == std::string_view::npos) break;
        rest = rest.substr(bar + 1);
        col += static_cast<int>(bar) + 1;
      }
      if (groups.size() < 2) {
        return fail(err, st.line, kv->value_col,
                    "partition needs >= 2 |-separated groups");
      }
      std::vector<NodeId> all;
      for (const auto& group : groups) {
        all.insert(all.end(), group.begin(), group.end());
      }
      std::sort(all.begin(), all.end());
      if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
        return fail(err, st.line, kv->value_col,
                    "partition groups overlap (a node is in two groups)");
      }
      if (!expand(st, st.col, 1 + ids)) return false;
      doc.scenario.partition(at, std::move(groups));
      mark_events(st.line);
      return true;
    }
    if (kw == "link_down" || kw == "link_up") {
      if (!known_keys(st, {"at", "from", "to"})) return false;
      double at = 0.0;
      std::vector<NodeId> from;
      std::vector<NodeId> to;
      if (!time_at(st, "at", at) || !node_set(st, "from", from) ||
          !node_set(st, "to", to) ||
          !expand(st, st.col,
                  static_cast<std::int64_t>(1 + from.size() + to.size()))) {
        return false;
      }
      if (kw == "link_down") {
        doc.scenario.link_down(at, std::move(from), std::move(to));
      } else {
        doc.scenario.link_up(at, std::move(from), std::move(to));
      }
      mark_events(st.line);
      return true;
    }
    if (kw == "slow") {
      if (!known_keys(st, {"at", "node", "factor"})) return false;
      double at = 0.0;
      std::vector<NodeId> nodes;
      const KeyVal* kv = nullptr;
      double factor = 0.0;
      if (!time_at(st, "at", at) || !node_set(st, "node", nodes) ||
          !required(st, "factor", kv) ||
          !parse_number(st, *kv, factor, err)) {
        return false;
      }
      if (factor <= 0.0) {
        return fail(err, st.line, kv->value_col, "factor must be > 0");
      }
      if (!expand(st, st.col, static_cast<std::int64_t>(nodes.size()))) {
        return false;
      }
      for (const NodeId node : nodes) doc.scenario.slow(at, node, factor);
      mark_events(st.line);
      return true;
    }
    if (kw == "lie") {
      if (!known_keys(st, {"at", "node", "delta"})) return false;
      double at = 0.0;
      std::vector<NodeId> nodes;
      const KeyVal* kv = nullptr;
      double delta = 0.0;
      if (!time_at(st, "at", at) || !node_set(st, "node", nodes) ||
          !required(st, "delta", kv) ||
          !parse_number(st, *kv, delta, err) ||
          !expand(st, st.col, static_cast<std::int64_t>(nodes.size()))) {
        return false;
      }
      for (const NodeId node : nodes) doc.scenario.lie(at, node, delta);
      mark_events(st.line);
      return true;
    }
    if (kw == "storm_on") {
      if (!known_keys(st, {"at", "extra", "prob"})) return false;
      double at = 0.0;
      double extra = 0.0;
      double prob = 1.0;
      if (!time_at(st, "at", at) || !extra_delay(st, extra) ||
          !probability(st, "prob", 1.0, prob)) {
        return false;
      }
      doc.scenario.storm_on(at, extra, prob);
      mark_events(st.line);
      return true;
    }
    if (kw == "storm_off") {
      if (!known_keys(st, {"at"})) return false;
      double at = 0.0;
      if (!time_at(st, "at", at)) return false;
      doc.scenario.storm_off(at);
      mark_events(st.line);
      return true;
    }
    if (kw == "delay_storm") {
      if (!known_keys(st, {"from", "to", "extra", "prob"})) return false;
      double from = 0.0;
      double to = 0.0;
      double extra = 0.0;
      double prob = 1.0;
      if (!window(st, from, to) || !extra_delay(st, extra) ||
          !probability(st, "prob", 1.0, prob)) {
        return false;
      }
      doc.scenario.delay_storm(from, to, extra, prob);
      mark_events(st.line);
      return true;
    }
    if (kw == "flap") {
      if (!known_keys(st, {"from", "to", "period", "duty", "a", "b"})) {
        return false;
      }
      double from = 0.0;
      double to = 0.0;
      const KeyVal* kv = nullptr;
      double period = 0.0;
      double duty = 0.0;
      std::vector<NodeId> a;
      std::vector<NodeId> b;
      if (!window(st, from, to) || !required(st, "period", kv) ||
          !parse_number(st, *kv, period, err)) {
        return false;
      }
      if (period <= 0.0) {
        return fail(err, st.line, kv->value_col, "period must be > 0 ms");
      }
      if (!probability(st, "duty", 0.5, duty) || !node_set(st, "a", a) ||
          !node_set(st, "b", b)) {
        return false;
      }
      // Four link events per window, each carrying both sets.
      const std::int64_t per_window =
          4 * static_cast<std::int64_t>(1 + a.size() + b.size());
      const std::int64_t windows =
          flap_windows(from, to, period, duty, room() / per_window);
      if (!expand(st, kv->value_col, windows * per_window)) return false;
      doc.scenario.flapping_link(from, to, period, duty, std::move(a),
                                 std::move(b));
      mark_events(st.line);
      return true;
    }
    if (kw == "rack") {
      if (!known_keys(st, {"at", "group", "size"})) return false;
      double at = 0.0;
      const KeyVal* kv = nullptr;
      std::int64_t group = 0;
      std::int64_t size = 0;
      if (!time_at(st, "at", at) || !required(st, "group", kv) ||
          !parse_integer(st, *kv, group, err)) {
        return false;
      }
      if (group < 0) {
        return fail(err, st.line, kv->value_col, "group must be >= 0");
      }
      const KeyVal* size_kv = find(st, "size");
      if (size_kv != nullptr) {
        if (!parse_integer(st, *size_kv, size, err)) return false;
        if (size < 1) {
          return fail(err, st.line, size_kv->value_col, "size must be >= 1");
        }
      }
      const std::int64_t rack = rack_size(size);
      if (rack <= 0) {
        return fail(err, st.line, st.col,
                    "rack needs size= (no cluster size in config/context)");
      }
      // Bounds before arithmetic: with rack <= limit and lo < limit,
      // neither group * rack nor lo + rack can overflow.
      const std::int64_t limit = id_limit();
      if (rack > limit) {
        return fail(err, st.line,
                    size_kv != nullptr ? size_kv->value_col : st.col,
                    "rack size " + std::to_string(rack) +
                        " is out of range (ids stay below " +
                        std::to_string(limit) + ")");
      }
      if (group > (limit - 1) / rack) {
        return fail(err, st.line, kv->value_col,
                    "rack group " + std::to_string(group) +
                        " is beyond max_nodes");
      }
      // The last rack may be partial, like the topology's last cluster.
      const std::int64_t lo = group * rack;
      const std::int64_t hi = std::min(lo + rack, limit);
      if (!expand(st, st.col, hi - lo)) return false;
      // One instant, many victims: the engine counts a same-time batch
      // as a single correlated disruption.
      for (std::int64_t id = lo; id < hi; ++id) {
        doc.scenario.crash(at, static_cast<NodeId>(id));
      }
      doc.max_node_ref =
          std::max(doc.max_node_ref, static_cast<NodeId>(hi - 1));
      mark_events(st.line);
      return true;
    }
    if (kw == "overload") {
      if (!known_keys(st, {"from", "to", "steps", "extra", "prob"})) {
        return false;
      }
      double from = 0.0;
      double to = 0.0;
      const KeyVal* steps_kv = nullptr;
      std::int64_t steps = 0;
      double extra = 0.0;
      double prob = 1.0;
      if (!window(st, from, to) || !required(st, "steps", steps_kv) ||
          !parse_integer(st, *steps_kv, steps, err) ||
          !extra_delay(st, extra) || !probability(st, "prob", 1.0, prob)) {
        return false;
      }
      if (steps < 1) {
        return fail(err, st.line, steps_kv->value_col, "steps must be >= 1");
      }
      // One storm_on per step plus the closing storm_off.
      if (!expand(st, steps_kv->value_col,
                  std::min(steps, kMaxExpansion) + 1)) {
        return false;
      }
      doc.scenario.overload_ramp(from, to, static_cast<int>(steps), extra,
                                 prob);
      mark_events(st.line);
      return true;
    }
    if (kw == "churn") {
      if (!known_keys(st, {"from", "to", "join", "leave"})) return false;
      double from = 0.0;
      double to = 0.0;
      if (!window(st, from, to)) return false;
      std::vector<NodeId> joins;
      std::vector<NodeId> leaves;
      if (const KeyVal* kv = find(st, "join")) {
        if (!parse_set(st, kv->value, kv->value_col, room(), joins)) {
          return false;
        }
      }
      if (const KeyVal* kv = find(st, "leave")) {
        if (!parse_set(st, kv->value, kv->value_col, room(), leaves)) {
          return false;
        }
      }
      if (joins.empty() && leaves.empty()) {
        return fail(err, st.line, st.col,
                    "churn needs join= and/or leave=");
      }
      if (!expand(st, st.col,
                  static_cast<std::int64_t>(joins.size() + leaves.size()))) {
        return false;
      }
      // Joins on the grid, leaves offset by half a step, so the two
      // streams interleave instead of colliding.
      const double span = to - from;
      for (std::size_t i = 0; i < joins.size(); ++i) {
        doc.scenario.join(from + span * static_cast<double>(i) /
                                     static_cast<double>(joins.size()),
                          joins[i]);
      }
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        doc.scenario.leave(from + span * (static_cast<double>(i) + 0.5) /
                                      static_cast<double>(leaves.size()),
                           leaves[i]);
      }
      mark_events(st.line);
      return true;
    }
    return fail(err, st.line, st.col, "unknown statement '" + kw + "'");
  }
};

}  // namespace

std::string DslError::to_string() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ", col " + std::to_string(col) +
         ": " + message;
}

bool parse_scenario(std::string_view text, const DslContext& ctx,
                    ScenarioDoc& out, DslError& err) {
  out = ScenarioDoc{};
  err = DslError{};
  Parser parser{ctx, out, err, {}, false};
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                      : nl - pos);
    ++line_no;
    Statement st;
    bool empty = true;
    if (!scan_line(line, line_no, st, empty, err)) return false;
    if (!empty && !parser.statement(st)) return false;
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  // Cross-statement discipline, attributed to the offending statement's
  // line (col 1: the violation is about the statement, not a token).
  if (const std::optional<ScenarioIssue> issue = out.scenario.check()) {
    const int line = issue->event_index < parser.event_lines.size()
                         ? parser.event_lines[issue->event_index]
                         : 0;
    return fail(err, line, 1, issue->message);
  }
  return true;
}

bool load_scenario_file(const std::string& path, const DslContext& ctx,
                        ScenarioDoc& out, DslError& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err = DslError{0, 0, "cannot read scenario file " + path};
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_scenario(ss.str(), ctx, out, err);
}

namespace {

void append_number(std::string& out, double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, ptr);
  (void)ec;
}

/// Canonical compact set: sorted, deduplicated, ranges collapsed.
void append_set(std::string& out, const std::vector<NodeId>& ids) {
  std::vector<NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[j] + 1) ++j;
    if (i > 0) out += ',';
    out += std::to_string(sorted[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(sorted[j]);
    }
    i = j + 1;
  }
}

}  // namespace

std::string serialize_scenario(const ScenarioDoc& doc) {
  std::string out;
  if (!doc.name.empty()) {
    out += "name \"" + doc.name + "\"\n";
  }
  if (doc.n > 0 || doc.max_nodes > 0 || doc.duration_ms > 0.0 ||
      doc.cluster_size > 0) {
    out += "config";
    if (doc.n > 0) out += " n=" + std::to_string(doc.n);
    if (doc.max_nodes > 0) {
      out += " max_nodes=" + std::to_string(doc.max_nodes);
    }
    if (doc.duration_ms > 0.0) {
      out += " duration=";
      append_number(out, doc.duration_ms);
    }
    if (doc.cluster_size > 0) {
      out += " cluster=" + std::to_string(doc.cluster_size);
    }
    out += '\n';
  }
  if (doc.has_budget()) {
    out += "budget";
    if (doc.budget_max_false_per_node_min >= 0.0) {
      out += " max_false_per_node_min=";
      append_number(out, doc.budget_max_false_per_node_min);
    }
    if (doc.budget_max_detect_p99_ms >= 0.0) {
      out += " max_detect_p99=";
      append_number(out, doc.budget_max_detect_p99_ms);
    }
    out += '\n';
  }
  for (const FaultEvent& e : doc.scenario.events) {
    switch (e.kind) {
      case FaultKind::kCrash:
        out += "crash at=";
        break;
      case FaultKind::kRecover:
        out += "recover at=";
        break;
      case FaultKind::kJoin:
        out += "join at=";
        break;
      case FaultKind::kLeave:
        out += "leave at=";
        break;
      case FaultKind::kPartition:
        out += "partition at=";
        break;
      case FaultKind::kHeal:
        out += "heal at=";
        break;
      case FaultKind::kStormStart:
        out += "storm_on at=";
        break;
      case FaultKind::kStormEnd:
        out += "storm_off at=";
        break;
      case FaultKind::kLinkDown:
        out += "link_down at=";
        break;
      case FaultKind::kLinkUp:
        out += "link_up at=";
        break;
      case FaultKind::kSlowStart:
        out += "slow at=";
        break;
      case FaultKind::kSlowEnd:
        out += "slow_end at=";
        break;
      case FaultKind::kLieStart:
        out += "lie at=";
        break;
      case FaultKind::kLieEnd:
        out += "lie_end at=";
        break;
      case FaultKind::kExclude:  // refused by Scenario::check
        out += "exclude at=";
        break;
    }
    append_number(out, e.at_ms);
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
      case FaultKind::kJoin:
      case FaultKind::kLeave:
      case FaultKind::kSlowEnd:
      case FaultKind::kLieEnd:
      case FaultKind::kExclude:
        out += " node=" + std::to_string(e.node);
        break;
      case FaultKind::kSlowStart:
        out += " node=" + std::to_string(e.node) + " factor=";
        append_number(out, e.factor);
        break;
      case FaultKind::kLieStart:
        out += " node=" + std::to_string(e.node) + " delta=";
        append_number(out, e.factor);
        break;
      case FaultKind::kPartition:
        out += " groups=";
        for (std::size_t g = 0; g < e.groups.size(); ++g) {
          if (g > 0) out += '|';
          append_set(out, e.groups[g]);
        }
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
        out += " from=";
        append_set(out, e.groups[0]);
        out += " to=";
        append_set(out, e.groups[1]);
        break;
      case FaultKind::kStormStart:
        out += " extra=";
        append_number(out, e.extra_delay_ms);
        out += " prob=";
        append_number(out, e.delay_prob);
        break;
      case FaultKind::kHeal:
      case FaultKind::kStormEnd:
        break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace rfd::cluster
