// Streaming JSONL trace sink.
//
// One TraceWriter owns one output file and the staging ring in front of
// it. The simulation hot path calls emit() - a POD store into the ring -
// and all formatting and I/O happens on the writer side: flush() drains
// the ring into JSONL lines, write-side records (run headers, metric
// snapshots) drain the ring first and then append their own complete
// line, so the stream is totally ordered and no line ever interleaves
// with another.
//
// Records are formatted with a fixed field order per type and fixed
// number formatting ("t" as fixed-point ms with ns resolution, other
// numbers as %.10g), so a fixed-seed run produces a byte-identical trace
// - the property the diffing and replay tooling relies on.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.hpp"
#include "obs/record.hpp"
#include "obs/ring.hpp"

namespace rfd::obs {

/// Escapes `s` for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// Builds one JSONL object line with insertion-ordered fields. Non-finite
/// numbers become null so downstream tooling never sees bare nan tokens.
class JsonLine {
 public:
  JsonLine& str(std::string_view key, std::string_view value);
  JsonLine& num(std::string_view key, double value);
  JsonLine& integer(std::string_view key, std::int64_t value);
  JsonLine& boolean(std::string_view key, bool value);
  /// Appends `"key":` followed by the raw (pre-formatted JSON) value.
  JsonLine& raw(std::string_view key, std::string_view json_value);
  /// Closes the object and returns the line (no trailing newline).
  std::string finish();

 private:
  void comma();
  std::string out_ = "{";
  bool first_ = true;
};

class TraceWriter final : public RecordSink {
 public:
  /// Opens config.trace_path ("-" = stdout). ok() reports success; all
  /// operations on a failed writer are no-ops.
  explicit TraceWriter(const Config& config);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Hot path: stages one record. On a full ring, either drains
  /// synchronously (lossless, default) or drops and counts exactly
  /// (config.drop_on_full).
  void emit(const Record& r) override {
    ++emitted_;
    if (ring_.push(r)) return;
    if (drop_on_full_) {
      ++dropped_;
      return;
    }
    drain();
    ring_.push(r);
  }

  /// Drains the ring into the file and flushes stdio buffers.
  void flush();

  /// Writer-side: drains the ring, then appends one complete line.
  void write_line(const std::string& line);

  /// Finalizes the stream: drains, emits the exact drop-accounting record
  /// when any record was lost, and closes the file. Idempotent; the
  /// destructor calls it.
  void close();

  std::int64_t emitted() const { return emitted_; }
  std::int64_t dropped() const { return dropped_; }
  std::int64_t written_records() const { return written_records_; }

 private:
  void drain();
  /// Formats one record as a complete "{...}\n" line at `p` (the caller
  /// guarantees kLineMax bytes of room) and returns the end cursor.
  char* format(const Record& r, char* p);
  void format_cold(const Record& r, std::string& out);
  char* put_t(char* p, double value);

  RecordRing ring_;
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  bool drop_on_full_ = false;
  std::int64_t emitted_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t written_records_ = 0;
  std::string scratch_;
  std::vector<char> drain_buf_;
  // Memo for the last formatted "t" value: hot records come in bursts that
  // share a sim-time stamp (all sends of one pump tick, drops alongside
  // them), so re-emitting the cached digits skips most double formatting.
  double memo_t_val_ = 0.0;
  int memo_t_len_ = 0;
  char memo_t_[32];
};

}  // namespace rfd::obs
