// Streaming JSONL trace sink.
//
// One TraceWriter owns one output file and a 64 KB drain buffer in front
// of it. emit() formats a record straight into that buffer, and
// write_line() appends a writer-side line (run header, metric snapshot,
// profile rollup, footer) to the same buffer, so the stream is totally
// ordered and no line ever interleaves with another. A full buffer is
// written whole; lines never split across writes.
//
// A record counts as written only once the write that carried its bytes
// succeeded (stdio's buffer included: the writer flushes after every
// write). Records and lines a failed write lost count in dropped(), and
// close() ends such a stream with one {"type":"lost"} line.
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

  /// Formats one record into the drain buffer, writing the buffer out
  /// when it fills.
  void emit(const Record& r) override;

  /// Writer-side: appends one complete line after every record emitted
  /// so far.
  void write_line(const std::string& line);

  /// Finalizes the stream: writes what is buffered, then the
  /// loss-accounting line when any record was lost, and closes the file.
  /// Idempotent; the destructor calls it.
  void close();

  /// Records and lines a failed write lost.
  std::int64_t dropped() const { return dropped_; }
  std::int64_t written_records() const { return written_records_; }

 private:
  /// Writes the buffered lines; they count as written or as dropped by
  /// the write's outcome.
  void drain();
  /// Formats one record as a complete "{...}\n" line at `p` (the caller
  /// guarantees kLineMax bytes of room) and returns the end cursor.
  char* format(const Record& r, char* p);
  void format_cold(const Record& r, std::string& out);
  char* put_t(char* p, double value);

  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  std::int64_t dropped_ = 0;
  std::int64_t written_records_ = 0;
  std::string scratch_;
  /// Formatted lines awaiting drain(): buf_len_ bytes holding
  /// buf_records_ records and lines.
  std::vector<char> buf_;
  std::size_t buf_len_ = 0;
  std::int64_t buf_records_ = 0;
  // Memo for the last formatted "t" value: hot records come in bursts that
  // share a sim-time stamp (all sends of one pump tick, drops alongside
  // them), so re-emitting the cached digits skips most double formatting.
  double memo_t_val_ = 0.0;
  int memo_t_len_ = 0;
  char memo_t_[32];
};

}  // namespace rfd::obs
